// Deterministic fault injection for the serving stack (DESIGN.md §13).
//
// A ChaosInjector is consulted by the AsyncServer front end once per reply
// and draws — from a seeded Rng, so a scenario replays exactly — one of:
// deliver normally, delay the reply, drop it (the client's read times
// out), truncate it mid-line, or hard-reset the connection (SO_LINGER 0
// close → TCP RST mid-reply). The chaos suite (tests/chaos_test.cc,
// bench_serve --chaos) combines an injector with hostile clients — slow
// readers, half-open connections, malformed and oversized frames, corrupt
// checkpoints published mid-reload — and asserts the overload-safety
// invariants: no crash, no hang, and every request accounted for in
// Metrics (requests == ok + error + expired + shed). The hostile clients
// are tests/raw_client.h.
#ifndef RTGCN_SERVE_CHAOS_H_
#define RTGCN_SERVE_CHAOS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/random.h"

namespace rtgcn::serve {

/// \brief Seeded, thread-safe fault plan generator for reply writes.
class ChaosInjector {
 public:
  enum class ReplyFault { kNone, kDelay, kDrop, kTruncate, kReset };

  struct Options {
    uint64_t seed = 1;
    double delay_prob = 0;     ///< sleep before writing the reply
    double drop_prob = 0;      ///< never write it (client read times out)
    double truncate_prob = 0;  ///< write a prefix, then close
    double reset_prob = 0;     ///< SO_LINGER 0 close → RST mid-reply
    int64_t delay_ms_max = 10; ///< delays are uniform in [1, delay_ms_max]
  };

  struct ReplyPlan {
    ReplyFault fault = ReplyFault::kNone;
    int64_t delay_ms = 0;    ///< for kDelay
    size_t truncate_at = 0;  ///< bytes to write for kTruncate
  };

  explicit ChaosInjector(Options options);

  /// Draws the fault plan for one reply of `reply_bytes` bytes. The draw
  /// sequence is deterministic in the seed; under concurrent connections
  /// the interleaving (not the sequence) varies, which the suite's
  /// invariants are insensitive to.
  ReplyPlan PlanReply(size_t reply_bytes);

  uint64_t plans() const { return plans_.load(std::memory_order_relaxed); }
  uint64_t delays() const { return delays_.load(std::memory_order_relaxed); }
  uint64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  uint64_t truncates() const {
    return truncates_.load(std::memory_order_relaxed);
  }
  uint64_t resets() const { return resets_.load(std::memory_order_relaxed); }
  uint64_t faults() const {
    return delays() + drops() + truncates() + resets();
  }

 private:
  Options options_;
  std::mutex mu_;
  Rng rng_;
  std::atomic<uint64_t> plans_{0};
  std::atomic<uint64_t> delays_{0};
  std::atomic<uint64_t> drops_{0};
  std::atomic<uint64_t> truncates_{0};
  std::atomic<uint64_t> resets_{0};
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_CHAOS_H_
