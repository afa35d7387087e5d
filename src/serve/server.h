// In-process inference runtime: one request path over a pinned model
// snapshot, with a per-(model_version, day) score cache.
//
// Rank()/Score()/ScoreBatch() run on the calling thread (an AsyncServer
// executor, its IO thread or an in-process caller) through one Execute:
//  1. pin registry_->Current() — every reply carries the version of
//     exactly one published model, so hot reloads never produce a reply
//     mixing two versions — and look up its completed-entry cache;
//  2. admit through the AdmissionController (reject-fast);
//  3. shed the request if its deadline has passed;
//  4. answer from the cache entry on a hit;
//  5. on a miss, join the in-flight forward for the same (version, day):
//     one forward scores every stock of a day, so concurrent same-day
//     requests share it (single-flight), with no batch window;
//  6. otherwise lead that forward: run the ScoreFn on this thread, rank
//     the scores once and publish them.
// A caller that may not wait (AsyncServer's IO thread) is answered only on
// a SERVING server's cache hit, which skips step 2 (it takes no admission
// slot); for anything else Execute returns before it counts anything.
// Degraded and draining requests need step 2.
// Forwards for different days run at the same time, each on its leader's
// thread. The leader that wins the shared thread pool data-parallelizes
// over stocks and the others run inline (common/thread_pool.h); either
// way the scores are bit-identical to a serial forward.
//
// The forward is a ScoreFn: all-stock scores for (snapshot, day). Batch
// serving wires DatasetScoreFn over a WindowDataset; the streaming
// pipeline wires RollingPipeline::ServeScoreFn (stream/pipeline.h).
//
// Overload safety (DESIGN.md §13):
//  * admitted requests are bounded by an AdmissionController — a full
//    server sheds new work with Unavailable (BUSY on the wire) instead of
//    queueing without limit;
//  * a request may carry an absolute deadline (RequestOptions; on the
//    wire it runs from the line's arrival). A request is shed with
//    DeadlineExceeded, counted in Metrics::expired, when its deadline has
//    passed before it is answered from the cache or starts executing (e.g.
//    while it waited behind its connection's earlier lines or in the front
//    end's executor queue) or while it waits to join an in-flight forward.
//    A forward that has started runs to completion;
//  * Stop() drains: admitted requests complete, new requests fail with a
//    "draining" status (DRAINING on the wire);
//  * Health() reports SERVING / DEGRADED / DRAINING. The server is
//    DEGRADED when the registry has no published snapshot or its reload
//    failures cross degraded_failure_threshold; degraded replies serve
//    real (but possibly outdated) scores flagged `stale` instead of
//    erroring, falling back to the newest version's scores ever computed
//    for a day when no snapshot is published at all.
#ifndef RTGCN_SERVE_SERVER_H_
#define RTGCN_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "market/dataset.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace rtgcn::serve {

/// \brief The one serving backend that AsyncServer fronts and ExecuteLine
/// dispatches to.
class InferenceServer {
 public:
  struct Options {
    bool enable_cache = true;      ///< retain completed (version, day) scores
    int64_t cache_capacity = 256;  ///< cached (version, day) entries (FIFO)

    // Overload safety.
    int64_t max_queue = 1024;      ///< admitted-request bound (admission)
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

  /// Opens admission. Idempotent.
  Status Start();

  /// Drains: new requests fail with a "draining" Unavailable, and Stop()
  /// returns once every admitted request has answered.
  void Stop();

  /// Blocking: scores for every stock on prediction day `day`.
  Result<RankReply> Rank(int64_t day, RequestOptions request) {
    return *Rank(day, request, /*may_wait=*/true);
  }
  Result<RankReply> Rank(int64_t day) { return Rank(day, RequestOptions()); }
  std::optional<Result<RankReply>> Rank(int64_t day,
                                        const RequestOptions& request,
                                        bool may_wait);

  /// Blocking: score and rank of `stock` on prediction day `day`.
  Result<ScoreReply> Score(int64_t day, int64_t stock,
                           RequestOptions request);
  Result<ScoreReply> Score(int64_t day, int64_t stock) {
    return Score(day, stock, RequestOptions());
  }

  /// Score and rank of each of `stocks` on day `day`, in order, from one
  /// request. A stock out of range fails the whole request before any
  /// forward runs. With `may_wait` false (an event loop) this and Rank
  /// return std::nullopt, counting nothing, where answering would wait.
  std::optional<Result<std::vector<ScoreReply>>> ScoreBatch(
      int64_t day, std::span<const int64_t> stocks,
      const RequestOptions& request, bool may_wait);

  /// Rank / Score with `may_wait` false and no deadline: true, with the
  /// reply in *out, when answered OK.
  bool TryRankCached(int64_t day, RankReply* out);
  bool TryScoreCached(int64_t day, int64_t stock, ScoreReply* out);

  /// Current health; evaluating it also advances the degraded-seconds
  /// accounting in Metrics.
  HealthState Health();

  /// One-line health summary for the HEALTH wire command, e.g.
  /// "SERVING version=3 reload_failures=0 queue=0", where queue counts the
  /// admitted requests in flight.
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
  // A forward in progress for one (version, day), joined by same-key
  // requests.
  using Flight = std::shared_future<Result<std::shared_ptr<const DayScores>>>;

  // Pinning, admission, deadline, lookup and accounting of one request;
  // std::nullopt, counting nothing, when `may_wait` is false and it would
  // wait.
  std::optional<Result<Scored>> Execute(int64_t day,
                                        const RequestOptions& request,
                                        bool may_wait);
  // Completed cache entry for (version, day); nullptr when there is none.
  std::shared_ptr<const DayScores> Cached(int64_t version, int64_t day);
  // Scores `day` under `snapshot`: cache hit, joined flight or led forward.
  Result<std::shared_ptr<const DayScores>> ScoresFor(
      const ModelSnapshot& snapshot, int64_t day,
      std::chrono::steady_clock::time_point deadline);
  // Runs the forward for `day`, ranks it once and remembers it as the
  // day's stale fallback.
  Result<std::shared_ptr<const DayScores>> Forward(
      const ModelSnapshot& snapshot, int64_t day);
  // Scores of the newest version ever computed for `day`; nullptr when
  // never scored. The DEGRADED fallback when no snapshot is published.
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

  // (version, day) -> scores; FIFO-evicted at cache_capacity. inflight_
  // holds the forwards still running, so a key is in at most one of the
  // two. Both guarded by cache_mu_.
  std::mutex cache_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const DayScores>> cache_;
  std::deque<uint64_t> cache_fifo_;
  std::unordered_map<uint64_t, Flight> inflight_;

  // day -> scores of the highest version computed for it; the
  // stale-serving fallback. Bounded like the cache, FIFO over first-seen
  // days.
  std::mutex stale_mu_;
  std::unordered_map<int64_t, Scored> last_by_day_;
  std::deque<int64_t> stale_fifo_;

  // Degraded-seconds accounting: wall-clock spent in kDegraded, advanced
  // on every Health() evaluation (each request and each HEALTH command).
  std::mutex health_mu_;
  uint64_t last_health_us_ = 0;
  bool was_degraded_ = false;
  double degraded_secs_ = 0;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_SERVER_H_
