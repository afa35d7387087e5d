// Captures benchmark numbers into committed JSON reports.
//
// Two modes:
//  - --mode kernels (default): times square matmul at --sizes under every
//    supported kernel backend plus a Figure-5-style synthetic RT-GCN train
//    step, and writes BENCH_kernels.json with per-backend GFLOPs / step
//    times and the avx2-over-reference speedups. The reference numbers ARE
//    the baseline — each run re-measures both backends on the same machine,
//    so the speedup column never compares across hosts.
//  - --mode scale: universe-size scaling curves of the sparse CSR graph.
//    For each N in --scale_sizes (default 500,1405,10000 — paper NYSE is
//    1405) it builds synthetic relations at ~0.3% pair density (Table III's
//    wiki-relation ratio), reports CSR memory vs the O(N²) bytes a dense
//    [N, N] mask would take, CSR build time, and one full train step.
//    Writes BENCH_scale.json.
//  - --check FILE: parses FILE with the minimal JSON reader below and
//    validates the required keys of any report kind (kernels, scale, and
//    the BENCH_stream.json / BENCH_serve_robust.json that bench_stream
//    --json and bench_serve --json write); exit 0 on a well-formed report.
//    CI runs this as the bench smoke.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "core/rtgcn.h"
#include "graph/sparse.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`repeats` wall time of `fn`, each repeat running `fn` enough
/// times to exceed ~50ms so the clock granularity is negligible.
double BestSecondsPer(const std::function<void()>& fn, int repeats) {
  fn();  // warm-up: touches pages, primes caches, initializes dispatch
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    int iters = 1;
    for (;;) {
      const double t0 = NowSeconds();
      for (int i = 0; i < iters; ++i) fn();
      const double dt = NowSeconds() - t0;
      if (dt >= 0.05) {
        best = std::min(best, dt / iters);
        break;
      }
      iters *= 2;
    }
  }
  return best;
}

struct MatMulSample {
  int64_t n = 0;
  std::string backend;
  double seconds = 0;
  double gflops = 0;
};

MatMulSample TimeMatMul(int64_t n, kernels::Backend backend, int repeats) {
  kernels::SetBackend(backend);
  Rng rng(1);
  Tensor a = RandomGaussian({n, n}, 0, 1, &rng);
  Tensor b = RandomGaussian({n, n}, 0, 1, &rng);
  MatMulSample s;
  s.n = n;
  s.backend = kernels::Active().name;
  s.seconds = BestSecondsPer([&] { MatMul(a, b); }, repeats);
  s.gflops = 2.0 * static_cast<double>(n) * n * n / s.seconds / 1e9;
  return s;
}

graph::RelationTensor SyntheticRelations(int64_t n, int64_t k, int64_t edges,
                                         Rng* rng) {
  graph::RelationTensor rel(n, k);
  for (int64_t e = 0; e < edges; ++e) {
    const int64_t i = static_cast<int64_t>(rng->UniformInt(n));
    const int64_t j = static_cast<int64_t>(rng->UniformInt(n));
    if (i == j) continue;
    rel.AddRelation(i, j, static_cast<int64_t>(rng->UniformInt(k))).Abort();
  }
  return rel;
}

struct TrainStepSample {
  std::string backend;
  double ms_per_step = 0;
};

// The Figure-5 cost unit: one forward+loss+backward+Adam step of the
// time-sensitive RT-GCN on a synthetic market-sized problem.
TrainStepSample TimeTrainStep(kernels::Backend backend, int repeats) {
  kernels::SetBackend(backend);
  Rng rng(7);
  const int64_t stocks = 64, window = 12, features = 4;
  graph::RelationTensor rel =
      SyntheticRelations(stocks, 5, stocks * 6, &rng);
  core::RtGcnConfig cfg;
  cfg.strategy = core::Strategy::kTimeSensitive;
  cfg.window = window;
  cfg.num_features = features;
  cfg.relational_filters = 32;
  core::RtGcnModel model(rel, cfg, &rng);
  ag::Adam opt(model.Parameters(), 1e-3f);
  const Tensor x = RandomUniform({window, stocks, features}, 0.9f, 1.1f, &rng);
  const Tensor y = RandomGaussian({stocks}, 0, 0.02f, &rng);
  TrainStepSample s;
  s.backend = kernels::Active().name;
  s.ms_per_step = 1e3 * BestSecondsPer(
                            [&] {
                              opt.ZeroGrad();
                              auto scores =
                                  model.Forward(ag::Constant(x), &rng);
                              auto loss = core::CombinedLoss(scores, y, 0.1f);
                              ag::Backward(loss);
                              opt.Step();
                            },
                            repeats);
  return s;
}

std::string FmtD(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

bool ParseSizes(const std::string& csv, std::vector<int64_t>* out) {
  for (const std::string& tok : Split(csv, ',')) {
    const int64_t n = std::strtoll(tok.c_str(), nullptr, 10);
    if (n <= 0) {
      std::fprintf(stderr, "bench_to_json: bad sizes entry '%s'\n",
                   tok.c_str());
      return false;
    }
    out->push_back(n);
  }
  return true;
}

int Generate(const std::string& out_path, const std::string& sizes_csv,
             int repeats) {
  std::vector<int64_t> sizes;
  if (!ParseSizes(sizes_csv, &sizes)) return 1;
  // Single-threaded so the numbers measure the kernels, not the pool.
  SetNumThreads(1);
  const bool avx2 = kernels::CpuSupportsAvx2();
  std::vector<kernels::Backend> backends = {kernels::Backend::kReference};
  if (avx2) backends.push_back(kernels::Backend::kAvx2);

  std::vector<MatMulSample> matmul;
  for (int64_t n : sizes) {
    for (kernels::Backend b : backends) {
      matmul.push_back(TimeMatMul(n, b, repeats));
      std::fprintf(stderr, "  matmul n=%lld [%s]: %.2f GFLOP/s\n",
                   static_cast<long long>(matmul.back().n),
                   matmul.back().backend.c_str(), matmul.back().gflops);
    }
  }
  std::vector<TrainStepSample> steps;
  for (kernels::Backend b : backends) {
    steps.push_back(TimeTrainStep(b, repeats));
    std::fprintf(stderr, "  train_step [%s]: %.2f ms\n",
                 steps.back().backend.c_str(), steps.back().ms_per_step);
  }
  kernels::SetBackend(kernels::Backend::kReference);
  SetNumThreads(0);

  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"kernels\",\n";
  js << "  \"cpu_supports_avx2\": " << (avx2 ? "true" : "false") << ",\n";
  js << "  \"matmul\": [\n";
  for (size_t i = 0; i < matmul.size(); ++i) {
    const MatMulSample& s = matmul[i];
    js << "    {\"n\": " << s.n << ", \"backend\": \"" << s.backend
       << "\", \"ms\": " << FmtD(1e3 * s.seconds)
       << ", \"gflops\": " << FmtD(s.gflops) << "}"
       << (i + 1 < matmul.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"train_step\": [\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    js << "    {\"backend\": \"" << steps[i].backend
       << "\", \"ms_per_step\": " << FmtD(steps[i].ms_per_step) << "}"
       << (i + 1 < steps.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"speedup\": {\n";
  bool first = true;
  for (int64_t n : sizes) {
    double ref = 0, vec = 0;
    for (const MatMulSample& s : matmul) {
      if (s.n != n) continue;
      if (s.backend == "reference") ref = s.gflops;
      if (s.backend == "avx2") vec = s.gflops;
    }
    if (ref > 0 && vec > 0) {
      if (!first) js << ",\n";
      js << "    \"matmul_" << n << "\": " << FmtD(vec / ref);
      first = false;
    }
  }
  if (steps.size() == 2 && steps[1].ms_per_step > 0) {
    if (!first) js << ",\n";
    js << "    \"train_step\": "
       << FmtD(steps[0].ms_per_step / steps[1].ms_per_step);
    first = false;
  }
  js << "\n  }\n";
  js << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_to_json: cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << js.str();
  std::fprintf(stderr, "bench_to_json: wrote %s\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --mode scale: universe-size scaling of the sparse CSR graph
// ---------------------------------------------------------------------------

struct ScaleSample {
  int64_t n = 0;
  int64_t undirected_edges = 0;
  int64_t csr_entries = 0;
  size_t csr_bytes = 0;
  size_t dense_mask_bytes = 0;
  double build_ms = 0;
  double sparse_step_ms = 0;
};

// One full train step (forward + backward + Adam) of the time-sensitive
// RT-GCN. The loss is the pure O(N) regression term: PairwiseRankingLoss
// needs only O(N) memory, but its O(N²) compute would dominate — and
// defeat — the O(E) scaling measurement at N = 10,000.
double TimeScaleStep(const graph::RelationTensor& rel, int repeats) {
  Rng rng(11);
  const int64_t n = rel.num_stocks();
  const int64_t window = 8, features = 4;
  core::RtGcnConfig cfg;
  cfg.strategy = core::Strategy::kTimeSensitive;
  cfg.window = window;
  cfg.num_features = features;
  cfg.relational_filters = 16;
  core::RtGcnModel model(rel, cfg, &rng);
  ag::Adam opt(model.Parameters(), 1e-3f);
  const Tensor x = RandomUniform({window, n, features}, 0.9f, 1.1f, &rng);
  const Tensor y = RandomGaussian({n}, 0, 0.02f, &rng);
  return 1e3 * BestSecondsPer(
                   [&] {
                     opt.ZeroGrad();
                     auto scores = model.Forward(ag::Constant(x), &rng);
                     ag::Backward(core::RegressionLoss(scores, y));
                     opt.Step();
                   },
                   repeats);
}

int GenerateScale(const std::string& out_path, const std::string& sizes_csv,
                  int repeats) {
  std::vector<int64_t> sizes;
  if (!ParseSizes(sizes_csv, &sizes)) return 1;
  constexpr double kDensity = 0.003;  // Table III wiki relation ratio

  std::vector<ScaleSample> rows;
  for (int64_t n : sizes) {
    Rng rng(static_cast<uint64_t>(42 + n));
    const int64_t target =
        static_cast<int64_t>(kDensity * static_cast<double>(n) * (n - 1) / 2);
    const graph::RelationTensor rel =
        SyntheticRelations(n, 5, target, &rng);
    ScaleSample s;
    s.n = n;
    s.undirected_edges = rel.num_edges();
    s.build_ms = 1e3 * BestSecondsPer(
                           [&] { graph::CsrGraph::NormalizedAdjacency(rel); },
                           repeats);
    const graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
    s.csr_entries = g->num_entries();
    s.csr_bytes = g->ApproxBytes();
    s.dense_mask_bytes = static_cast<size_t>(n) * n * sizeof(float);
    s.sparse_step_ms = TimeScaleStep(rel, repeats);
    std::fprintf(stderr,
                 "  scale n=%lld edges=%lld csr=%zuB dense_mask=%zuB "
                 "build=%.2fms sparse_step=%.2fms\n",
                 static_cast<long long>(s.n),
                 static_cast<long long>(s.undirected_edges), s.csr_bytes,
                 s.dense_mask_bytes, s.build_ms, s.sparse_step_ms);
    rows.push_back(s);
  }

  std::ostringstream js;
  js << "{\n";
  js << "  \"bench\": \"scale\",\n";
  js << "  \"density\": " << FmtD(kDensity) << ",\n";
  js << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleSample& s = rows[i];
    js << "    {\"n\": " << s.n << ", \"edges\": " << s.undirected_edges
       << ", \"csr_entries\": " << s.csr_entries
       << ", \"csr_bytes\": " << s.csr_bytes
       << ", \"dense_mask_bytes\": " << s.dense_mask_bytes
       << ", \"build_ms\": " << FmtD(s.build_ms)
       << ", \"sparse_step_ms\": " << FmtD(s.sparse_step_ms) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n";
  js << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_to_json: cannot open %s\n", out_path.c_str());
    return 1;
  }
  out << js.str();
  std::fprintf(stderr, "bench_to_json: wrote %s\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --check: minimal JSON reader, enough to validate our own report
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  /// Parses one complete JSON value; false on any syntax error or
  /// trailing garbage. Records top-level object keys as a side effect.
  bool Validate() {
    SkipWs();
    if (!Value(/*top_level=*/true)) return false;
    SkipWs();
    return pos_ == s_.size();
  }

  const std::vector<std::string>& top_keys() const { return top_keys_; }

 private:
  bool Value(bool top_level = false) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object(top_level);
    if (c == '[') return Array();
    if (c == '"') return String(nullptr);
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  bool Object(bool top_level) {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!String(&key)) return false;
      if (top_level) top_keys_.push_back(key);
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String(std::string* out) {
    if (Peek() != '"') return false;
    ++pos_;
    std::string val;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      val += s_[pos_++];
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    if (out != nullptr) *out = val;
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    const size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::vector<std::string> top_keys_;
};

int Check(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_to_json: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  JsonChecker checker(text);
  if (!checker.Validate()) {
    std::fprintf(stderr, "bench_to_json: %s is not valid JSON\n",
                 path.c_str());
    return 1;
  }
  const auto& keys = checker.top_keys();
  const bool is_scale =
      std::find(keys.begin(), keys.end(), "rows") != keys.end();
  const bool is_stream =
      std::find(keys.begin(), keys.end(), "ticks_per_sec") != keys.end();
  const bool is_serve_robust =
      std::find(keys.begin(), keys.end(), "capacity_qps") != keys.end();
  const std::vector<const char*> required =
      is_serve_robust
          ? std::vector<const char*>{"bench", "config", "capacity_qps",
                                     "overload", "accounting"}
          : is_stream
                ? std::vector<const char*>{"bench", "config", "ticks_per_sec",
                                           "window_update_p95_us", "graph",
                                           "retrains", "retrain_mean_seconds",
                                           "reload_p95_us"}
                : is_scale
                      ? std::vector<const char*>{"bench", "density", "rows"}
                      : std::vector<const char*>{"bench", "cpu_supports_avx2",
                                                 "matmul", "train_step",
                                                 "speedup"};
  int missing = 0;
  for (const char* key : required) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      std::fprintf(stderr, "bench_to_json: %s missing required key \"%s\"\n",
                   path.c_str(), key);
      ++missing;
    }
  }
  if (missing > 0) return 1;
  std::fprintf(stderr, "bench_to_json: %s OK\n", path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  std::string mode = "kernels";
  std::string out;
  std::string sizes = "128,256,512";
  std::string scale_sizes = "500,1405,10000";
  std::string check;
  int repeats = 3;
  FlagSet fs(
      "Measure kernel-backend (--mode kernels) or sparse-graph scaling "
      "(--mode scale) performance to JSON, or --check any BENCH_*.json.");
  fs.RegisterChoice("mode", &mode, {"kernels", "scale"}, "report kind");
  fs.Register("out", &out,
              "output JSON path (default BENCH_<mode>.json)");
  fs.Register("sizes", &sizes, "comma-separated square matmul sizes");
  fs.Register("scale_sizes", &scale_sizes,
              "comma-separated universe sizes N for --mode scale");
  fs.Register("repeats", &repeats, "timing repeats (best-of)");
  fs.Register("check", &check,
              "validate an existing report instead of generating");
  const Status status = fs.Parse(argc, argv);
  if (fs.help_requested()) {
    std::printf("%s", fs.Usage(argv[0]).c_str());
    return 0;
  }
  status.Abort();
  if (!check.empty()) return Check(check);
  if (out.empty()) out = "BENCH_" + mode + ".json";
  if (mode == "scale") return GenerateScale(out, scale_sizes, repeats);
  return Generate(out, sizes, repeats);
}

}  // namespace
}  // namespace rtgcn

int main(int argc, char** argv) { return rtgcn::Main(argc, argv); }
