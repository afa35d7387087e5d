// Bounded admission gate for the serving layer.
//
// One AdmissionController caps one pool of pending work: the
// InferenceServer's request queue and the AsyncServer's connection set
// each own one. A full controller either rejects the arrival immediately
// (kRejectFast — the wire replies BUSY and the client backs off) or parks
// the caller for a bounded time waiting for a slot to free
// (kBlockWithTimeout — smooths short bursts at the cost of caller
// latency). Either way an overloaded server answers in bounded time
// instead of queueing without limit.
//
// CloseForDrain() flips the gate into drain mode: every waiter and every
// later Admit() fails with a Status whose message starts with "draining",
// which ExecuteLine maps to the DRAINING wire reply.
#ifndef RTGCN_SERVE_ADMISSION_H_
#define RTGCN_SERVE_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace rtgcn::serve {

/// What a full AdmissionController does with the next arrival.
enum class AdmissionPolicy {
  kRejectFast,        ///< fail immediately with Unavailable (BUSY on the wire)
  kBlockWithTimeout,  ///< wait up to block_timeout_ms for a slot, then fail
};

const char* AdmissionPolicyName(AdmissionPolicy policy);

/// Parses "reject" / "block" (the --admission flag values); false on
/// unknown names.
bool ParseAdmissionPolicy(const std::string& name, AdmissionPolicy* out);

/// \brief Counting gate with a fixed capacity. Thread-safe.
class AdmissionController {
 public:
  struct Options {
    int64_t capacity = 1024;
    AdmissionPolicy policy = AdmissionPolicy::kRejectFast;
    int64_t block_timeout_ms = 50;   ///< kBlockWithTimeout wait bound
    const char* what = "requests";   ///< noun used in error messages
  };

  explicit AdmissionController(Options options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Takes one slot. Returns OK (the caller now owns a slot and must
  /// Release() it), Unavailable when the gate is full (after the block
  /// timeout, under kBlockWithTimeout) or draining, or DeadlineExceeded
  /// when `deadline` passed while waiting for a slot.
  Status Admit(std::chrono::steady_clock::time_point deadline =
                   std::chrono::steady_clock::time_point::max());

  /// Returns one slot; wakes one blocked Admit() if any.
  void Release();

  /// Fails all waiters and all future Admit() calls with a "draining"
  /// status. Slots already held stay valid until Release().
  void CloseForDrain();

  /// Re-arms the gate after CloseForDrain (server restart).
  void Reopen();

  int64_t in_use() const;
  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int64_t in_use_ = 0;
  bool draining_ = false;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_ADMISSION_H_
