// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// Registration (GetCounter/GetGauge/GetHistogram) takes a mutex once per
// metric name and returns a stable pointer; every mutation on the returned
// object is a relaxed atomic operation, so hot paths never lock. Readers
// (DumpText, Snapshot) sum the atomics without stopping writers: the result
// is consistent enough for monitoring, which is all it promises.
//
// The registry is dependency-free (std only) so any layer of the stack —
// tensor kernels, the thread pool, the trainer, the serving front-end —
// can publish metrics without creating a library cycle.
#ifndef RTGCN_OBS_REGISTRY_H_
#define RTGCN_OBS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rtgcn::obs {

/// \brief Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Last-write-wins scalar (learning rate, queue depth, ...).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// \brief Bucket layout of a histogram, fixed at registration.
///
/// `lower_bounds[i]` is the inclusive lower bound of bucket i; bucket i
/// counts samples in [lower_bounds[i], lower_bounds[i+1]) and the last
/// bucket is unbounded above. lower_bounds[0] must be 0.
struct BucketSpec {
  std::vector<uint64_t> lower_bounds;

  /// Power-of-two buckets: bucket 0 = {0}, bucket b = [2^(b-1), 2^b) for
  /// b in [1, num_buckets). The classic microsecond-latency layout.
  static BucketSpec Exponential2(int num_buckets);

  /// One exact bucket per integer in [0, max_value] plus an overflow
  /// bucket for anything larger (batch sizes, retry counts, ...).
  static BucketSpec LinearUnit(int64_t max_value);
};

/// \brief Fixed-bucket histogram with lock-free recording.
///
/// Percentiles interpolate linearly inside the winning bucket, so they are
/// accurate to within one bucket's width.
class Histogram {
 public:
  explicit Histogram(BucketSpec spec);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// Value below which fraction `p` (clamped to [0, 1]) of the samples
  /// fall; 0 when empty.
  double Percentile(double p) const;

  int num_buckets() const { return static_cast<int>(bounds_.size()); }
  uint64_t BucketLowerBound(int b) const {
    return bounds_[static_cast<size_t>(b)];
  }
  uint64_t BucketCount(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

 private:
  std::vector<uint64_t> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// \brief Point-in-time copy of one histogram (buckets included, so deltas
/// between snapshots still support percentile queries).
struct HistogramSnapshot {
  std::string name;
  std::vector<uint64_t> lower_bounds;
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  uint64_t sum = 0;

  double Mean() const;
  double Percentile(double p) const;
};

/// \brief Point-in-time copy of a whole registry. `DeltaSince` turns two
/// cumulative snapshots into the activity between them — how the trainer
/// reports "what this Fit call did" from process-global counters.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter values and histogram buckets minus `base` (clamped at zero;
  /// metrics absent from `base` pass through). Gauges keep their current
  /// value — deltas of last-write-wins scalars are meaningless.
  RegistrySnapshot DeltaSince(const RegistrySnapshot& base) const;

  uint64_t CounterValue(const std::string& name, uint64_t def = 0) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  /// Multi-line `name value` rendering (same layout as Registry::DumpText).
  std::string ToText() const;
};

/// \brief Named metrics, created on first use, stable addresses for life.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// For histograms the spec is only consulted at creation; later calls
  /// with a different spec return the existing histogram unchanged.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, const BucketSpec& spec);

  /// Prometheus-style text exposition: `name value` for counters/gauges,
  /// `name_bucket{le="..."} cum` + `name_sum` + `name_count` for
  /// histograms (empty buckets elided). Names are emitted in sorted order.
  std::string DumpText() const;

  RegistrySnapshot Snapshot() const;

  /// The process-wide registry (training, checkpointing, pool metrics).
  /// Subsystems that need isolated accounting (one serve::Metrics per
  /// server under test) create their own Registry instances instead.
  static Registry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rtgcn::obs

#endif  // RTGCN_OBS_REGISTRY_H_
