// Shared helpers for the table/figure reproduction binaries.
#ifndef RTGCN_BENCH_BENCH_COMMON_H_
#define RTGCN_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/catalog.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "harness/table.h"
#include "market/market.h"

namespace rtgcn::bench {

/// Parses a --scale value: a numeric size multiplier, or the token "full"
/// for the paper-sized universes (scale 7 reaches NASDAQ 854 / NYSE 1405 /
/// CSI 242 — the sparse CSR graph keeps full-universe runs O(E)).
inline double ParseScaleToken(const std::string& token) {
  if (token == "full") return 7.0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || v <= 0) {
    std::fprintf(stderr, "bad --scale '%s' (positive number or \"full\")\n",
                 token.c_str());
    std::exit(2);
  }
  return v;
}

/// Market specs for a "NASDAQ,NYSE,CSI"-style list at a size multiplier.
/// Any other name is an error (exit 2), so a typo cannot run nothing.
inline std::vector<market::MarketSpec> ParseMarkets(const std::string& csv,
                                                    double scale) {
  std::vector<market::MarketSpec> specs;
  for (const std::string& name : Split(csv, ',')) {
    if (name == "NASDAQ") {
      specs.push_back(market::NasdaqSpec(scale));
    } else if (name == "NYSE") {
      specs.push_back(market::NyseSpec(scale));
    } else if (name == "CSI") {
      specs.push_back(market::CsiSpec(scale));
    } else {
      std::fprintf(stderr, "bad --markets entry '%s' (NASDAQ, NYSE or CSI)\n",
                   name.c_str());
      std::exit(2);
    }
  }
  return specs;
}

/// Flags every bench binary shares. Register the relevant groups, Parse,
/// then call Apply() once.
struct BenchFlags {
  int num_threads = 0;  ///< 0 = RTGCN_NUM_THREADS env var / hardware
  std::string markets = "NASDAQ,NYSE,CSI";
  std::string scale = "1";  ///< size multiplier, or "full" (paper N)

  std::string checkpoint_dir;  ///< empty = checkpointing off
  int64_t checkpoint_every = 1;
  int64_t checkpoint_keep = 3;
  bool resume = true;

  /// Execution flags take effect (thread-pool size). The tensor kernel
  /// backend comes from RTGCN_KERNEL, else CPUID.
  void Apply() const {
    if (num_threads >= 1) SetNumThreads(num_threads);
  }

  double Scale() const { return ParseScaleToken(scale); }

  std::vector<market::MarketSpec> Markets() const {
    return ParseMarkets(markets, Scale());
  }

  void ApplyCheckpoints(harness::TrainOptions* train) const {
    train->checkpoint_dir = checkpoint_dir;
    train->checkpoint_every = checkpoint_every;
    train->checkpoint_keep = checkpoint_keep;
    train->resume = resume;
  }
};

/// Registers the shared execution/market flags onto `fs`, bound to `*bf`.
/// Drivers that always run the same markets pass `markets = false`, so
/// --markets is rejected there instead of silently ignored.
inline void RegisterBenchFlags(FlagSet* fs, BenchFlags* bf,
                               bool markets = true) {
  fs->Register("num_threads", &bf->num_threads,
               "tensor worker threads (0 = RTGCN_NUM_THREADS env / auto)");
  if (markets) {
    fs->Register("markets", &bf->markets,
                 "comma-separated markets to run (NASDAQ,NYSE,CSI)");
  }
  fs->Register("scale", &bf->scale,
               "market size multiplier, or \"full\" for paper-sized N");
}

/// Registers the crash-safe checkpointing flags (sweep binaries that train).
inline void RegisterCheckpointFlags(FlagSet* fs, BenchFlags* bf) {
  fs->Register("checkpoint_dir", &bf->checkpoint_dir,
               "save/resume training checkpoints here (empty = off)");
  fs->Register("checkpoint_every", &bf->checkpoint_every,
               "checkpoint every N epochs");
  fs->Register("checkpoint_keep", &bf->checkpoint_keep,
               "retained checkpoints per model");
  fs->Register("resume", &bf->resume,
               "resume from the newest checkpoint when present");
}

inline std::string Fmt3(double v) { return FormatFixed(v, 3); }
inline std::string Fmt2(double v) { return FormatFixed(v, 2); }

/// Formats a p-value like the paper ("3.05e-4").
inline std::string FmtP(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", p);
  return buf;
}

}  // namespace rtgcn::bench

#endif  // RTGCN_BENCH_BENCH_COMMON_H_
