#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/thread_pool.h"
#include "graph/sparse.h"
#include "tensor/kernels/kernels.h"

namespace perfbench {

Host ProbeHost() {
  Host host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.nproc = std::max(1, CPU_COUNT(&set));
  }
  host.pool = std::max(1, host.nproc / 2);
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::vector<std::string> flags;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value[0] == ' ') value.erase(0, 1);
    if (key == "model" && line.rfind("model name", 0) == 0 &&
        host.cpu_model.empty()) {
      host.cpu_model = value;
    } else if (key == "flags" && flags.empty()) {
      std::istringstream in(value);
      for (std::string f; in >> f;) {
        if (f == "sse4_2" || f == "avx" || f == "avx2" || f == "fma" ||
            f == "avx512f" || f == "avx512bw" || f == "avx512_vnni" ||
            f == "avx512_bf16" || f == "amx_tile" || f == "amx_bf16") {
          flags.push_back(f);
        }
      }
    }
  }
  for (const std::string& f : flags) {
    host.isa += (host.isa.empty() ? "" : ",") + f;
  }
  if (host.isa.empty()) host.isa = "none";
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.kernel_backend = rtgcn::kernels::Active().name;
  host.graph_backend =
      rtgcn::graph::GraphBackendName(rtgcn::graph::ActiveGraphBackend());
  return host;
}

void Result::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void Result::Add(std::string name, double value, std::string unit,
                 std::string moves) {
  metrics.push_back({std::move(name), value, std::move(unit),
                     std::move(moves)});
}

void Result::Config(std::string key, std::string value) {
  config.emplace_back(std::move(key), std::move(value));
}

uint64_t SeedFor(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + salt;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

double StealPercent(int64_t since_ticks, double seconds) {
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return 100.0 * static_cast<double>(StealTicks() - since_ticks) /
         (ticks * seconds * cpus);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

rtgcn::obs::BucketSpec LatencyBuckets() {
  constexpr int kSubBits = 8;
  rtgcn::obs::BucketSpec spec;
  for (uint64_t v = 0; v < (uint64_t{1} << kSubBits); ++v) {
    spec.lower_bounds.push_back(v);
  }
  for (int shift = 0; shift < 28; ++shift) {
    for (uint64_t sub = 0; sub < (uint64_t{1} << kSubBits); ++sub) {
      spec.lower_bounds.push_back(((uint64_t{1} << kSubBits) | sub) << shift);
    }
  }
  return spec;
}

void Phase(const std::string& what) {
  std::fprintf(stderr, "phase %s\n", what.c_str());
  std::fflush(stderr);
}

void UsePool(int threads) { rtgcn::SetNumThreads(std::max(1, threads)); }

Ledger::Scope::Scope(Ledger* ledger, const char* name) : ledger_(ledger) {
  if (ledger_ == nullptr || !ledger_->enabled_) return;
  index_ = static_cast<int64_t>(ledger_->spans_.size());
  ledger_->spans_.push_back({name, ledger_->open_, NowNs(), 0, 0});
  ledger_->open_ = index_;
}

Ledger::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = ledger_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  if (span.parent >= 0) {
    ledger_->spans_[static_cast<size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
  ledger_->open_ = span.parent;
}

void Ledger::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  if (enabled_) spans_.push_back({name, -1, start_ns, end_ns, 0});
}

std::vector<double> Ledger::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns > 0 && name == s.name) {
      out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<double> Ledger::SelfUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns > 0 && name == s.name) {
      out.push_back(1e-3 *
                    static_cast<double>(s.end_ns - s.start_ns - s.child_ns));
    }
  }
  return out;
}

bool Ledger::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"parent\": %lld}}%s\n",
                 s.name, 1e-3 * static_cast<double>(s.start_ns - origin),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                 static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
