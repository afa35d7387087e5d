// Hot checkpoint reload: polls a checkpoint directory and atomically
// publishes the newest loadable checkpoint as an immutable ModelSnapshot.
//
// The swap is RCU-style: Current() copies the published std::shared_ptr
// under a mutex held for nanoseconds, so queries in flight keep the
// snapshot they grabbed while a newer one is promoted; the superseded
// model is freed when its last query finishes. Promotion reuses the checkpoint subsystem's
// resume-from-newest-loadable discipline (harness/checkpoint.h): candidate
// checkpoints newer than the served version are tried newest-first, and a
// corrupt or truncated file is skipped (and counted in Metrics) instead of
// taking the server down — the previous snapshot keeps serving.
#ifndef RTGCN_SERVE_REGISTRY_H_
#define RTGCN_SERVE_REGISTRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "harness/checkpoint.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace rtgcn::serve {

/// \brief Publishes ModelSnapshots from a directory of numbered checkpoints
/// (the ckpt-<epoch>.rtgcn layout harness::CheckpointManager writes).
class ModelRegistry {
 public:
  struct Options {
    std::string dir;                    ///< checkpoint directory to watch
    int64_t reload_interval_ms = 1000;  ///< poll period of the reload thread
  };

  /// `metrics` may be null (reload accounting is then dropped).
  ModelRegistry(Options options, ServableFactory factory, Metrics* metrics);
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Performs one synchronous poll (so a server never starts without trying
  /// to load a model) and starts the background reload thread. Returns
  /// NotFound when the directory holds no loadable checkpoint yet — the
  /// poller keeps watching and will promote the first one that appears.
  Status Start();

  /// Stops the reload thread. Published snapshots stay valid (shared_ptr).
  void Stop();

  /// Currently served snapshot; null until a checkpoint has been promoted.
  /// Callers pin the version for the whole query by holding the returned
  /// shared_ptr — a concurrent promotion swaps the pointer but never
  /// touches a pinned snapshot, which is freed when its last query ends.
  std::shared_ptr<const ModelSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Version of the current snapshot, -1 when none is published.
  int64_t CurrentVersion() const;

  /// Emergency ops control: withdraws the published snapshot so queries
  /// fall back to the inference server's stale-score cache (flagged STALE)
  /// instead of a model an operator wants pulled. With a live poll loop
  /// the newest loadable checkpoint on disk is re-promoted at the next
  /// poll — remove the files first to keep the model down.
  void Unpublish();

  /// Reload failures since the last successful promotion.
  int64_t consecutive_reload_failures() const {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }

  /// The DEGRADED rule of every serving process: kDegraded when no
  /// snapshot is published or the consecutive reload failures reached
  /// `degraded_failure_threshold` (<= 0 disables that trigger), else
  /// kServing. Costs one Current() read and one atomic load.
  HealthState Health(int64_t degraded_failure_threshold) const {
    if (Current() == nullptr) return HealthState::kDegraded;
    if (degraded_failure_threshold > 0 &&
        consecutive_reload_failures() >= degraded_failure_threshold) {
      return HealthState::kDegraded;
    }
    return HealthState::kServing;
  }

  /// Scans the directory once and promotes the newest loadable checkpoint
  /// whose epoch exceeds the served version, skipping (and counting)
  /// unloadable candidates. Returns true when a new snapshot was published.
  /// Public so tests and manually-driven servers can force a reload.
  bool PollOnce();

  const Options& options() const { return options_; }

 private:
  void PollLoop();

  Options options_;
  ServableFactory factory_;
  Metrics* metrics_;
  harness::CheckpointManager manager_;  ///< naming/listing only, no saves

  // RCU-style publish point: Promote() swaps the shared_ptr under a mutex
  // held for nanoseconds; readers copy it and then run lock-free against
  // their pinned snapshot. (std::atomic<std::shared_ptr> would avoid even
  // that lock, but libstdc++ 12's lock-bit implementation is opaque to
  // ThreadSanitizer and CI runs this code under TSan.)
  mutable std::mutex current_mu_;
  std::shared_ptr<const ModelSnapshot> current_;

  std::atomic<int64_t> consecutive_failures_{0};

  mutable std::mutex reload_mu_;        ///< serializes concurrent PollOnce
  std::mutex poll_mu_;                  ///< guards the poll thread lifecycle
  std::condition_variable poll_cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread poller_;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_REGISTRY_H_
