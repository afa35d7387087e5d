// Bounded admission gate for the serving layer.
//
// One AdmissionController caps one pool of in-flight work: the
// InferenceServer's admitted requests and the AsyncServer's connection set
// each own one. A full controller rejects the arrival immediately (the
// wire replies BUSY and the client backs off), so an overloaded server
// answers in bounded time instead of queueing without limit.
//
// CloseForDrain() flips the gate into drain mode: every later Admit()
// fails with a Status whose message starts with "draining", which
// ExecuteLine maps to the DRAINING wire reply. WaitIdle() then blocks
// until every slot already taken has been released — how
// InferenceServer::Stop() waits out its in-flight requests.
#ifndef RTGCN_SERVE_ADMISSION_H_
#define RTGCN_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/status.h"

namespace rtgcn::serve {

/// \brief Counting gate with a fixed capacity. Thread-safe.
class AdmissionController {
 public:
  struct Options {
    int64_t capacity = 1024;
    const char* what = "requests";   ///< noun used in error messages
  };

  explicit AdmissionController(Options options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Takes one slot. Returns OK (the caller now owns a slot and must
  /// Release() it), or Unavailable when the gate is full or draining.
  Status Admit();

  /// Returns one slot; wakes WaitIdle() when it was the last one.
  void Release();

  /// Fails all future Admit() calls with a "draining" status. Slots
  /// already held stay valid until Release().
  void CloseForDrain();

  /// Blocks until no slot is held.
  void WaitIdle();

  /// Re-arms the gate after CloseForDrain (server restart).
  void Reopen();

  int64_t in_use() const;
  bool draining() const;
  const Options& options() const { return options_; }

 private:
  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signalled when in_use_ reaches 0
  int64_t in_use_ = 0;
  bool draining_ = false;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_ADMISSION_H_
