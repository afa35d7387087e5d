// Serving metrics, backed by the shared observability registry
// (obs/registry.h). Every mutator is a relaxed atomic on an obs metric, so
// the inference hot path never takes a lock for accounting.
//
// The members are references to registry-owned obs metrics (DESIGN.md §9
// documents the names), updated with Increment() and read with Value().
// `registry` is public so additional per-server metrics can be registered
// next to the built-ins.
#ifndef RTGCN_SERVE_METRICS_H_
#define RTGCN_SERVE_METRICS_H_

#include <cstdint>
#include <string>

#include "obs/registry.h"

namespace rtgcn::serve {

/// \brief All counters and histograms of the serving subsystem. One
/// instance is shared by the registry (reload accounting), the inference
/// server (request/forward/cache accounting) and the AsyncServer front end.
///
/// Each Metrics owns its own obs::Registry (not the process-global one) so
/// concurrent servers — several in one test binary — account
/// independently.
struct Metrics {
  Metrics();

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// The backing registry; STATS and DumpText render from it.
  obs::Registry registry;

  // Request lifecycle. Every request that reaches the server ends in
  // exactly one of responses_ok / responses_error / expired / shed, so
  //   requests == responses_ok + responses_error + expired + shed
  // holds whenever no request is in flight — the chaos suite's accounting
  // invariant. busy_rejected counts socket-level rejections that never
  // reach the server (they are not part of `requests`).
  obs::Counter& requests;        ///< queries received
  obs::Counter& responses_ok;    ///< answered successfully
  obs::Counter& responses_error; ///< answered with an error

  // Overload safety.
  obs::Counter& shed;            ///< refused at admission (full / drain)
  obs::Counter& expired;         ///< deadline passed while queued or joining
  obs::Counter& busy_rejected;   ///< connections refused at the conn cap
  obs::Counter& stale_served;    ///< replies served from stale scores
  obs::Counter& oversized_lines; ///< protocol lines over the length cap
  obs::Counter& send_errors;     ///< reply writes that failed/timed out
  obs::Counter& client_retries;  ///< serve::Client retry attempts
  obs::Gauge& degraded_seconds;  ///< cumulative seconds in DEGRADED
  obs::Gauge& conns_active;      ///< open protocol connections

  // Forwards and the per-(version, day) score cache. A request that joins
  // a forward already in flight counts as neither a hit nor a miss.
  obs::Counter& forwards;        ///< model forward passes run
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;

  // Hot-reload registry.
  obs::Counter& reload_success;  ///< snapshots promoted
  obs::Counter& reload_failure;  ///< corrupt/unloadable skipped

  /// Arrival-to-response µs: Exponential2(kLatencyBuckets) buckets, so
  /// bucket b holds [2^(b-1), 2^b) µs (bucket 0 holds 0 µs).
  obs::Histogram& latency;

  static constexpr int kLatencyBuckets = 40;  ///< up to ~2^39 µs (~6 days)

  double UptimeSeconds() const;
  double Qps() const;            ///< completed responses per uptime second
  double CacheHitRate() const;   ///< hits / (hits + misses); 0 when no lookups

  /// Multi-line `name value` text (Prometheus-style flat keys), ending with
  /// the latency percentiles. Field names and layout are stable — the
  /// STATS verb's output contract.
  std::string DumpText() const;

 private:
  uint64_t start_us_;  ///< obs::NowMicros at construction (steady clock)
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_METRICS_H_
