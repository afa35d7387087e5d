// Shared plumbing of the repository benchmark: run options, host probe,
// timing and resource helpers, the in-memory span ledger, and the result
// record each workload fills in.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;   ///< timed window
  bool trace = false;    ///< traced run: per-layer ledger, not end-to-end
  std::string out_dir;   ///< scratch space inside the checkout
};

/// Host and configuration facts printed with every report.
struct Host {
  int nproc = 1;
  int pool = 1;  ///< tensor pool size: nproc / 2, at least 1
  std::string cpu_model;
  std::string isa;  ///< the ISA flags the kernels care about
  std::string kernel_backend;
  std::string graph_backend;
};

Host ProbeHost();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string moves;  ///< end-to-end metric this layer metric should move
};

/// What one workload run reports.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t in_flight = 0;  ///< outstanding when the window closed
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> config;

  void Fail(const std::string& why);
  void Add(std::string name, double value, std::string unit,
           std::string moves = "");
  void Config(std::string key, std::string value);
};

/// Independent stream `salt` of the run seed (SplitMix64), so every input a
/// workload generates (market, model init, day order, request script)
/// follows from --seed alone.
uint64_t SeedFor(uint64_t seed, uint64_t salt);

// --- time and resources ----------------------------------------------------

int64_t NowNs();  ///< steady clock
double ProcessCpuSeconds();
double ThreadCpuSeconds();  ///< calling thread only
double PeakRssMb();
/// CPU time the hypervisor gave other guests while this one wanted to run
/// (the "steal" column of /proc/stat, summed over CPUs), in clock ticks; 0
/// where unknown.
int64_t StealTicks();
/// Steal since `since_ticks` as a percentage of `seconds` on every CPU.
/// Printed with each report: it is the main source of run-to-run noise on
/// shared virtual machines.
double StealPercent(int64_t since_ticks, double seconds);

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Reports the current phase on stderr, so a watchdog that kills a stuck
/// run can say where it stopped.
void Phase(const std::string& what);

/// Sets the tensor pool size (at least 1) for later parallel calls.
void UsePool(int threads);

/// Log-linear nanosecond buckets for obs::Histogram, 1/256 octave (about
/// 0.3%) wide from 1 ns to about a minute: a fixed footprint however many
/// samples are recorded (peak RSS is an end-to-end metric).
rtgcn::obs::BucketSpec LatencyBuckets();

// --- spans ---------------------------------------------------------------

/// \brief In-memory span recorder for the benchmark thread. Spans nest by
/// scope; nothing is written until WriteChromeTrace. When disabled (or
/// null) a scope costs one branch.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Ledger* ledger, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    int64_t index_ = -1;
  };

  /// Records an already-closed top-level span (interleaved work, such as
  /// requests in flight on several connections).
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  /// Durations of every closed span named `name`, in microseconds.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Span time minus the time of its direct children, in microseconds.
  std::vector<double> SelfUs(const std::string& name) const;

  /// Chrome trace-event JSON (complete "X" events, one thread).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
  int64_t open_ = -1;
};

// --- workloads -------------------------------------------------------------

Result RunTrain(const Options& options, const Host& host);
Result RunServeHot(const Options& options, const Host& host);
Result RunServeCold(const Options& options, const Host& host);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
