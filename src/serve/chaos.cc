#include "serve/chaos.h"

#include <algorithm>

namespace rtgcn::serve {

ChaosInjector::ChaosInjector(Options options)
    : options_(options), rng_(options.seed) {
  options_.delay_ms_max = std::max<int64_t>(options_.delay_ms_max, 1);
}

ChaosInjector::ReplyPlan ChaosInjector::PlanReply(size_t reply_bytes) {
  plans_.fetch_add(1, std::memory_order_relaxed);
  double u;
  uint64_t draw_delay, draw_trunc;
  {
    // Fixed number of draws per plan, so the stream stays aligned across
    // fault kinds and a seed replays the same plan sequence.
    std::lock_guard<std::mutex> lock(mu_);
    u = rng_.Uniform();
    draw_delay = rng_.NextU64();
    draw_trunc = rng_.NextU64();
  }
  ReplyPlan plan;
  double edge = options_.delay_prob;
  if (u < edge) {
    plan.fault = ReplyFault::kDelay;
    plan.delay_ms = 1 + static_cast<int64_t>(
                            draw_delay %
                            static_cast<uint64_t>(options_.delay_ms_max));
    delays_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  edge += options_.drop_prob;
  if (u < edge) {
    plan.fault = ReplyFault::kDrop;
    drops_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  edge += options_.truncate_prob;
  if (u < edge) {
    plan.fault = ReplyFault::kTruncate;
    plan.truncate_at =
        reply_bytes > 0 ? static_cast<size_t>(draw_trunc % reply_bytes) : 0;
    truncates_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  edge += options_.reset_prob;
  if (u < edge) {
    plan.fault = ReplyFault::kReset;
    resets_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }
  return plan;
}

}  // namespace rtgcn::serve
