// In-process inference runtime: dynamic micro-batching over a pinned model
// snapshot, with a per-(model_version, day) score cache.
//
// Queries block in Rank()/Score() while a single batcher thread coalesces
// them: a batch is flushed when it reaches `max_batch` requests or when
// `batch_timeout_us` has elapsed since its first request arrived, whichever
// comes first. One forward pass scores every stock of a day, so all
// concurrent queries for the same day — and, via the cache, all later
// queries against the same model version — are answered by a single
// forward. The forward itself data-parallelizes over stocks through the
// shared thread pool (common/thread_pool.h).
//
// Every batch pins exactly one registry snapshot for its whole execution,
// so each response carries the version of exactly one published model —
// hot reloads never produce a response mixing two versions.
//
// The forward is a ScoreFn: all-stock scores for (snapshot, day). Batch
// serving wires DatasetScoreFn over a WindowDataset; the streaming
// pipeline wires RollingPipeline::ServeScoreFn (stream/pipeline.h).
//
// Overload safety (DESIGN.md §13):
//  * the pending queue is bounded by an AdmissionController — a full
//    server sheds new work with Unavailable (BUSY on the wire) instead of
//    queueing without limit;
//  * a request may carry a deadline; if it expires before its batch runs
//    it is shed with DeadlineExceeded and counted in Metrics::expired;
//  * Stop() drains: in-flight and queued batches complete, new requests
//    fail with a "draining" status (DRAINING on the wire);
//  * Health() reports SERVING / DEGRADED / DRAINING. The server is
//    DEGRADED when the registry has no published snapshot or its reload
//    failures cross degraded_failure_threshold; degraded replies serve
//    real (but possibly outdated) scores flagged `stale` instead of
//    erroring, falling back to the last scores ever computed for a day
//    when no snapshot is published at all.
#ifndef RTGCN_SERVE_SERVER_H_
#define RTGCN_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "market/dataset.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace rtgcn::serve {

/// \brief Micro-batching inference server: the one serving backend that
/// AsyncServer fronts and ExecuteLine dispatches to.
class InferenceServer {
 public:
  struct Options {
    int64_t max_batch = 32;        ///< flush when this many requests queue
    int64_t batch_timeout_us = 200;///< ... or this long after the first one
    bool enable_cache = true;      ///< per-(version, day) score cache
    int64_t cache_capacity = 256;  ///< cached (version, day) entries (FIFO)

    // Overload safety.
    int64_t max_queue = 1024;      ///< pending-request bound (admission)
    AdmissionPolicy admission = AdmissionPolicy::kRejectFast;
    int64_t admission_timeout_ms = 50;  ///< kBlockWithTimeout wait bound
    /// Consecutive reload failures before health flips to DEGRADED and
    /// replies are flagged stale; <= 0 disables the failure trigger.
    int64_t degraded_failure_threshold = 3;
  };

  // Shared serve-API types (serve/protocol.h), also spelled nested.
  using RequestOptions = serve::RequestOptions;
  using RankReply = serve::RankReply;
  using ScoreReply = serve::ScoreReply;

  /// Full forward pass: all `num_stocks` scores for `day` under
  /// `snapshot`. Must be deterministic in (snapshot, day), because its
  /// result is cached per (version, day). An error fails that day's
  /// requests and counts no cache miss or forward.
  using ScoreFn = std::function<Result<std::vector<float>>(
      const ModelSnapshot& snapshot, int64_t day)>;

  /// ScoreFn over a WindowDataset: rejects days outside
  /// [first_day, last_day], else scores that day's feature window.
  static ScoreFn DatasetScoreFn(const market::WindowDataset* data);

  /// `registry` must outlive the server; `metrics` may be null.
  InferenceServer(ScoreFn score_fn, int64_t num_stocks,
                  ModelRegistry* registry, Options options, Metrics* metrics);
  /// Serves `data` (which must outlive the server) via DatasetScoreFn.
  InferenceServer(const market::WindowDataset* data, ModelRegistry* registry,
                  Options options, Metrics* metrics);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Starts the batcher thread. Idempotent.
  Status Start();

  /// Drains and stops the batcher: queued and in-flight batches complete,
  /// requests arriving after Stop() fail with a "draining" Unavailable.
  void Stop();

  /// Blocking: scores for every stock on prediction day `day`.
  Result<RankReply> Rank(int64_t day, RequestOptions request);
  Result<RankReply> Rank(int64_t day) { return Rank(day, RequestOptions()); }

  /// Blocking: score and rank of `stock` on prediction day `day`.
  Result<ScoreReply> Score(int64_t day, int64_t stock,
                           RequestOptions request);
  Result<ScoreReply> Score(int64_t day, int64_t stock) {
    return Score(day, stock, RequestOptions());
  }

  /// Non-blocking: answers from the (current version, day) cache entry.
  /// Only fires while SERVING — degraded/stale/draining requests always
  /// take the blocking path so their accounting and fallbacks apply.
  /// AsyncServer uses these to answer hot requests on its event loop.
  bool TryRankCached(int64_t day, RankReply* out);
  bool TryScoreCached(int64_t day, int64_t stock, ScoreReply* out);

  /// Current health; evaluating it also advances the degraded-seconds
  /// accounting in Metrics.
  HealthState Health();

  /// One-line health summary for the HEALTH wire command, e.g.
  /// "SERVING version=3 reload_failures=0 queue=0".
  std::string HealthLine();

  const Options& options() const { return options_; }

 private:
  // Scores of one (version, day) forward pass, shared between the cache
  // and every reply that was answered from it.
  struct DayScores {
    std::vector<float> scores;  // [N]
    std::vector<int64_t> ranks; // [N], ranks[i] = rank of stock i (0 best)
  };
  struct Scored {
    int64_t version = -1;
    std::shared_ptr<const DayScores> day;
    bool stale = false;
  };
  struct Pending {
    int64_t day;
    std::chrono::steady_clock::time_point enqueue;  // batch-window deadline
    std::chrono::steady_clock::time_point deadline; // max() when none
    uint64_t enqueue_us = 0;  // obs::NowMicros at enqueue, for latency
    std::promise<Result<Scored>> promise;
  };

  Result<Scored> Submit(int64_t day, const RequestOptions& request);
  void BatchLoop();
  void ExecuteBatch(std::vector<Pending> batch);
  // Scores `day` under `snapshot`, via the cache when enabled.
  Result<std::shared_ptr<const DayScores>> ScoresFor(
      const ModelSnapshot& snapshot, int64_t day);
  // Last scores ever computed for `day`, any version; nullptr when never
  // scored. The DEGRADED fallback when no snapshot is published.
  Scored LastScoresFor(int64_t day);
  void RememberScores(int64_t day, int64_t version,
                      std::shared_ptr<const DayScores> entry);
  HealthState HealthLocked(bool draining);

  ScoreFn score_fn_;
  int64_t num_stocks_;
  ModelRegistry* registry_;
  Options options_;
  Metrics* metrics_;

  AdmissionController admission_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool running_ = false;
  bool draining_ = false;
  std::thread batcher_;

  // (version, day) -> scores; FIFO-evicted at cache_capacity. Guarded by
  // cache_mu_ (the batcher is the only writer, STATS-driven readers none —
  // but tests may run several servers against one registry).
  std::mutex cache_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const DayScores>> cache_;
  std::deque<uint64_t> cache_fifo_;

  // day -> newest scores computed for it (any version); the stale-serving
  // fallback. Bounded like the cache, FIFO over first-seen days.
  std::mutex stale_mu_;
  std::unordered_map<int64_t, Scored> last_by_day_;
  std::deque<int64_t> stale_fifo_;

  // Degraded-seconds accounting: wall-clock spent in kDegraded, advanced
  // on every Health() evaluation (each batch and each HEALTH command).
  std::mutex health_mu_;
  uint64_t last_health_us_ = 0;
  bool was_degraded_ = false;
  double degraded_secs_ = 0;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_SERVER_H_
