// RollingPipeline: the streaming orchestrator (DESIGN.md §14).
//
// One Step() consumes one DayUpdate from a TickSource: universe and
// relation deltas are folded into the pipeline's active set and relation
// tensor, and the official close is appended to the pipeline's
// market::WindowDataset as the day's panel row — the batch dataset class,
// so streamed features are computed by the batch code. On a seeded
// cadence the pipeline refits an RT-GCN on the *active* sub-universe
// (panel gathered from the live dataset, relation tensor induced on the
// active slots — the model builds
// its own CSR graph from it), exports a weights-only checkpoint through
// CheckpointManager naming, and hot-reloads it into a ModelRegistry — the
// same registry/snapshot machinery the inference server serves from.
//
// Churn-consistency guarantee: every model version is recorded with the
// exact slot list and universe version it was trained on. Rank() pins one
// registry snapshot and answers with that version's slots and scores —
// a reply can never mix pre- and post-churn universes, no matter how the
// promotion raced the query. When the live universe has moved past the
// model's, the reply is flagged `stale` (and the next retrain clears it).
//
// Threading: Step() and Rank() may run concurrently (the e2e load test
// does exactly that). Mutable stream state is guarded by one mutex, which
// Step() holds while it applies a day's deltas and appends its close, so a
// reply sees either the previous day or the new one, never a mix. Replies
// compute their version's features under it; the expensive phases — Fit
// and snapshot Score — run outside it on gathered copies, so queries keep
// flowing while a retrain is in progress.
#ifndef RTGCN_STREAM_PIPELINE_H_
#define RTGCN_STREAM_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/rtgcn.h"
#include "graph/relation_tensor.h"
#include "harness/checkpoint.h"
#include "harness/predictor.h"
#include "market/dataset.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/tick_source.h"

namespace rtgcn::stream {

/// \brief Rolling train→checkpoint→hot-reload configuration.
struct PipelineConfig {
  /// Model architecture; `window` and `num_features` also shape the
  /// streamed dataset's features.
  core::RtGcnConfig model;
  float alpha = 0.1f;

  /// Options for each refit (guard supervision included). The pipeline
  /// ignores `checkpoint_dir` here — training-state checkpoints must not
  /// land in the serving directory the registry scans.
  harness::TrainOptions train;

  /// Serving checkpoint directory (created on Init): each retrain exports
  /// ckpt-<version>.rtgcn here and the registry promotes it.
  std::string checkpoint_dir;

  int64_t retrain_every = 20;   ///< days between refits
  int64_t train_history = 60;   ///< recent prediction days used per refit
  uint64_t seed = 1;
};

/// \brief A ranking reply over the streaming universe. Slots and scores
/// always come from ONE model version's training universe.
struct StreamRankReply {
  int64_t model_version = -1;
  /// Universe version the model was trained on.
  int64_t universe_version = -1;
  int64_t day = -1;
  /// True when the live universe has churned past the model's.
  bool stale = false;
  std::vector<int64_t> slots;  ///< global slot ids, aligned with scores
  std::vector<float> scores;
};

/// \brief Streaming train/serve loop over one TickSource.
class RollingPipeline {
 public:
  /// `source` must outlive the pipeline and be exclusively driven by it.
  /// `initial_relations` is the day-0 relation state (the same tensor the
  /// TickSource was seeded with).
  RollingPipeline(PipelineConfig config, TickSource* source,
                  graph::RelationTensor initial_relations);
  ~RollingPipeline();

  RollingPipeline(const RollingPipeline&) = delete;
  RollingPipeline& operator=(const RollingPipeline&) = delete;

  /// Creates the serving checkpoint directory. Call once before Step().
  Status Init();

  /// Consumes one trading day (and retrains/publishes when due).
  Status Step();

  /// Scores the latest completed day under the currently published model.
  /// Unavailable until the first retrain has been promoted.
  Result<StreamRankReply> Rank();

  /// Full-universe forward for serve::InferenceServer: wire the server to
  /// this pipeline with
  ///   InferenceServer(pipeline.ServeScoreFn(), pipeline.num_slots(),
  ///                   pipeline.registry(), ...)
  /// and the streaming exports serve over the same request path, cache
  /// and wire front end as batch serving. `day` must be the latest
  /// completed day (any other day gets Unavailable, never wrong data).
  /// Slots outside the snapshot version's training universe score
  /// `-FLT_MAX`, so they rank deterministically last; within one day the
  /// gathered features are settled, which keeps the function deterministic
  /// in (snapshot, day) as the server's score cache requires.
  serve::InferenceServer::ScoreFn ServeScoreFn();

  int64_t num_slots() const { return source_->num_slots(); }

  /// SERVING once a snapshot is published and reloads are healthy;
  /// DEGRADED before the first promotion or after repeated reload failures.
  serve::HealthState Health() const;

  int64_t day() const;
  int64_t universe_version() const;
  int64_t retrains() const;
  int64_t last_retrain_day() const;
  /// Seconds spent in the most recent Fit (0 before the first).
  double last_retrain_seconds() const;

  serve::ModelRegistry* registry() { return &registry_; }

 private:
  /// Architecture recipe the registry's ServableFactory builds from; the
  /// factory is invoked right after each export (manual PollOnce), so the
  /// latest recipe always matches the newest checkpoint on disk.
  struct Arch {
    std::shared_ptr<const graph::RelationTensor> relations;
    core::RtGcnConfig config;
    float alpha = 0.1f;
    uint64_t seed = 1;
  };

  /// Training universe of one published version.
  struct VersionInfo {
    std::vector<int64_t> slots;
    int64_t universe_version = 0;
  };

  std::unique_ptr<serve::ServableModel> BuildServable();
  Status MaybeRetrain(int64_t day);
  /// The one reply path of Rank() and ScoreForServe(): looks up the
  /// snapshot version's training universe, gathers its features for the
  /// latest day under mu_ (`day`, when given, must be that day) and scores
  /// them outside it.
  Result<StreamRankReply> ScoreLatest(const serve::ModelSnapshot& snap,
                                      std::optional<int64_t> day);
  Result<std::vector<float>> ScoreForServe(const serve::ModelSnapshot& snap,
                                           int64_t day);

  PipelineConfig config_;
  TickSource* source_;

  mutable std::mutex mu_;  ///< guards dataset_/relations_/active_/versions_
  /// Every close streamed so far, day 0 first.
  market::WindowDataset dataset_;
  graph::RelationTensor relations_;
  std::vector<bool> active_;
  int64_t universe_version_ = 0;
  int64_t last_retrain_day_ = -1;
  int64_t retrains_ = 0;
  /// Highest checkpoint version found in the directory at Init(); this
  /// run's exports are numbered above it so a leftover checkpoint from a
  /// previous run is never the newest (Rank() can only serve versions
  /// this pipeline trained).
  int64_t version_base_ = 0;
  double last_retrain_seconds_ = 0;
  std::unordered_map<int64_t, VersionInfo> versions_;

  mutable std::mutex arch_mu_;
  std::shared_ptr<const Arch> latest_arch_;

  harness::CheckpointManager manager_;
  serve::ModelRegistry registry_;
};

}  // namespace rtgcn::stream

#endif  // RTGCN_STREAM_PIPELINE_H_
