#include "serve/metrics.h"

#include <cstdio>
#include <sstream>

#include "obs/clock.h"

namespace rtgcn::serve {

Metrics::Metrics()
    : requests(*registry.GetCounter("serve.requests")),
      responses_ok(*registry.GetCounter("serve.responses_ok")),
      responses_error(*registry.GetCounter("serve.responses_error")),
      shed(*registry.GetCounter("serve.shed")),
      expired(*registry.GetCounter("serve.expired")),
      busy_rejected(*registry.GetCounter("serve.busy_rejected")),
      stale_served(*registry.GetCounter("serve.stale_served")),
      oversized_lines(*registry.GetCounter("serve.oversized_lines")),
      send_errors(*registry.GetCounter("serve.send_errors")),
      client_retries(*registry.GetCounter("serve.client_retries")),
      degraded_seconds(*registry.GetGauge("serve.degraded_seconds")),
      conns_active(*registry.GetGauge("serve.conns_active")),
      forwards(*registry.GetCounter("serve.forwards")),
      cache_hits(*registry.GetCounter("serve.cache_hits")),
      cache_misses(*registry.GetCounter("serve.cache_misses")),
      reload_success(*registry.GetCounter("serve.reload_success")),
      reload_failure(*registry.GetCounter("serve.reload_failure")),
      latency(*registry.GetHistogram(
          "serve.latency_us", obs::BucketSpec::Exponential2(kLatencyBuckets))),
      start_us_(obs::NowMicros()) {}

double Metrics::UptimeSeconds() const {
  return static_cast<double>(obs::ElapsedMicrosSince(start_us_)) * 1e-6;
}

double Metrics::Qps() const {
  const double uptime = UptimeSeconds();
  if (uptime <= 0) return 0;
  const uint64_t done = responses_ok.Value() + responses_error.Value();
  return static_cast<double>(done) / uptime;
}

double Metrics::CacheHitRate() const {
  const uint64_t hits = cache_hits.Value();
  const uint64_t misses = cache_misses.Value();
  if (hits + misses == 0) return 0;
  return static_cast<double>(hits) / static_cast<double>(hits + misses);
}

std::string Metrics::DumpText() const {
  std::ostringstream out;
  auto line = [&out](const char* name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    out << name << ' ' << buf << '\n';
  };
  auto count = [&out](const char* name, uint64_t value) {
    out << name << ' ' << value << '\n';
  };
  count("serve.requests", requests.Value());
  count("serve.responses_ok", responses_ok.Value());
  count("serve.responses_error", responses_error.Value());
  count("serve.shed", shed.Value());
  count("serve.expired", expired.Value());
  count("serve.busy_rejected", busy_rejected.Value());
  count("serve.stale_served", stale_served.Value());
  count("serve.oversized_lines", oversized_lines.Value());
  count("serve.send_errors", send_errors.Value());
  count("serve.client_retries", client_retries.Value());
  line("serve.degraded_seconds", degraded_seconds.Value());
  line("serve.conns_active", conns_active.Value());
  count("serve.forwards", forwards.Value());
  count("serve.cache_hits", cache_hits.Value());
  count("serve.cache_misses", cache_misses.Value());
  line("serve.cache_hit_rate", CacheHitRate());
  count("serve.reload_success", reload_success.Value());
  count("serve.reload_failure", reload_failure.Value());
  line("serve.uptime_seconds", UptimeSeconds());
  line("serve.qps", Qps());
  line("serve.latency_us.mean", latency.Mean());
  line("serve.latency_us.p50", latency.Percentile(0.50));
  line("serve.latency_us.p95", latency.Percentile(0.95));
  line("serve.latency_us.p99", latency.Percentile(0.99));
  return out.str();
}

}  // namespace rtgcn::serve
