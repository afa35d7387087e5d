#include "stream/pipeline.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "baselines/rtgcn_predictor.h"
#include "common/logging.h"
#include "market/dataset.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/snapshot.h"

namespace rtgcn::stream {

namespace {

/// Consecutive reload failures before Health() reports DEGRADED (the
/// serving server's default threshold).
constexpr int64_t kDegradedReloadFailures = 3;

/// ServableModel that pins the architecture recipe (most importantly the
/// relation tensor the RT-GCN layers reference) for the model's lifetime.
class ArchServable : public serve::ServableModel {
 public:
  ArchServable(std::shared_ptr<const void> keepalive,
               std::unique_ptr<serve::ServableModel> inner)
      : keepalive_(std::move(keepalive)), inner_(std::move(inner)) {}

  nn::Module* module() override { return inner_->module(); }
  Tensor Score(const Tensor& features) override {
    return inner_->Score(features);
  }

 private:
  std::shared_ptr<const void> keepalive_;
  std::unique_ptr<serve::ServableModel> inner_;
};

}  // namespace

RollingPipeline::RollingPipeline(PipelineConfig config, TickSource* source,
                                 graph::RelationTensor initial_relations)
    : config_(std::move(config)),
      source_(source),
      dataset_(Tensor({1, source->num_slots()}, source->day0_close()),
               config_.model.window, config_.model.num_features),
      relations_(std::move(initial_relations)),
      active_(source->active()),
      manager_({config_.checkpoint_dir, /*every=*/1, /*keep=*/0}),
      registry_({config_.checkpoint_dir, /*reload_interval_ms=*/3'600'000},
                [this] { return BuildServable(); }, /*metrics=*/nullptr) {
  RTGCN_CHECK_EQ(relations_.num_stocks(), source_->num_slots());
}

RollingPipeline::~RollingPipeline() = default;

Status RollingPipeline::Init() {
  RTGCN_RETURN_NOT_OK(manager_.Init());
  // The pipeline can only serve versions it trained (Rank() needs the
  // version's training universe), so exports must outnumber anything a
  // previous run left in the directory — otherwise the registry keeps
  // promoting a leftover checkpoint and this pipeline starves.
  RTGCN_ASSIGN_OR_RETURN(const std::vector<int64_t> existing,
                         manager_.ListCheckpoints());
  version_base_ = existing.empty() ? 0 : existing.back();
  return Status::OK();
}

std::unique_ptr<serve::ServableModel> RollingPipeline::BuildServable() {
  std::shared_ptr<const Arch> arch;
  {
    std::lock_guard<std::mutex> lock(arch_mu_);
    arch = latest_arch_;
  }
  RTGCN_CHECK(arch != nullptr)
      << "registry factory invoked before the first export";
  auto predictor = std::make_unique<baselines::RtGcnPredictor>(
      *arch->relations, arch->config, arch->alpha, arch->seed,
      "rtgcn-stream");
  return std::make_unique<ArchServable>(
      arch, serve::WrapPredictor(std::move(predictor)));
}

Status RollingPipeline::Step() {
  obs::Span span("stream.PipelineStep", "stream");
  DayUpdate du = source_->NextDay();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!du.universe_events.empty()) ++universe_version_;
    for (const UniverseEvent& ue : du.universe_events) {
      active_[static_cast<size_t>(ue.slot)] = ue.listed;
    }
    for (const RelationEvent& ev : du.relation_events) {
      RTGCN_RETURN_NOT_OK(
          ev.add ? relations_.AddRelation(ev.i, ev.j, ev.type)
                 : relations_.RemoveRelation(ev.i, ev.j, ev.type));
    }
    dataset_.AppendDay(du.close);
  }
  obs::Registry::Global().GetCounter("stream.pipeline.days")->Increment();
  return MaybeRetrain(du.day);
}

Status RollingPipeline::MaybeRetrain(int64_t day) {
  std::vector<int64_t> slots;
  Tensor panel;
  std::shared_ptr<const graph::RelationTensor> relations;
  int64_t trained_universe = 0;
  int64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dataset_.num_days() - 1 < dataset_.first_day()) return Status::OK();
    if (last_retrain_day_ >= 0 &&
        day - last_retrain_day_ < config_.retrain_every) {
      return Status::OK();
    }
    for (int64_t i = 0; i < source_->num_slots(); ++i) {
      if (active_[static_cast<size_t>(i)]) slots.push_back(i);
    }
    if (static_cast<int64_t>(slots.size()) < 2) return Status::OK();
    panel = dataset_.Prices(slots);
    relations = std::make_shared<const graph::RelationTensor>(
        relations_.InducedSubgraph(slots));
    trained_universe = universe_version_;
    version = version_base_ + retrains_ + 1;
  }

  market::WindowDataset dataset(panel, config_.model.window,
                                config_.model.num_features);
  if (dataset.first_day() > dataset.last_day()) return Status::OK();
  const std::vector<int64_t> train_days = dataset.Days(
      dataset.last_day() - config_.train_history + 1, dataset.last_day());
  if (train_days.empty()) return Status::OK();

  baselines::RtGcnPredictor predictor(*relations, config_.model,
                                      config_.alpha, config_.seed + version,
                                      "rtgcn-stream");
  harness::TrainOptions train = config_.train;
  train.checkpoint_dir.clear();  // serving dir must hold only exports
  train.seed = config_.train.seed + static_cast<uint64_t>(version);

  const uint64_t fit_start = obs::NowMicros();
  {
    obs::Span fit_span("stream.Retrain", "stream");
    predictor.Fit(dataset, train_days, train);
  }
  const double fit_seconds =
      static_cast<double>(obs::NowMicros() - fit_start) * 1e-6;

  RTGCN_RETURN_NOT_OK(
      predictor.ExportSnapshot(manager_.CheckpointPath(version)));

  {
    std::lock_guard<std::mutex> lock(arch_mu_);
    auto arch = std::make_shared<Arch>();
    arch->relations = relations;
    arch->config = config_.model;
    arch->alpha = config_.alpha;
    arch->seed = config_.seed + static_cast<uint64_t>(version);
    latest_arch_ = std::move(arch);
  }

  {
    // Recorded before the promotion: Rank() may see the new version as soon
    // as PollOnce() swaps it in, and needs its training universe then.
    std::lock_guard<std::mutex> lock(mu_);
    versions_[version] = VersionInfo{std::move(slots), trained_universe};
  }
  auto& reg = obs::Registry::Global();
  const uint64_t reload_start = obs::NowMicros();
  const bool promoted = registry_.PollOnce();
  reg.GetHistogram("stream.reload_us", obs::BucketSpec::Exponential2(24))
      ->Record(obs::NowMicros() - reload_start);
  if (!promoted) {
    reg.GetCounter("stream.pipeline.promotion_failures")->Increment();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    last_retrain_day_ = day;
    retrains_ = version - version_base_;
    last_retrain_seconds_ = fit_seconds;
  }
  reg.GetGauge("stream.retrain_seconds")->Set(fit_seconds);
  reg.GetCounter("stream.pipeline.retrains")->Increment();
  return Status::OK();
}

Result<StreamRankReply> RollingPipeline::Rank() {
  obs::Span span("stream.Rank", "stream");
  std::shared_ptr<const serve::ModelSnapshot> snapshot = registry_.Current();
  if (snapshot == nullptr) {
    return Status::Unavailable("no model version promoted yet");
  }
  return ScoreLatest(*snapshot, std::nullopt);
}

Result<StreamRankReply> RollingPipeline::ScoreLatest(
    const serve::ModelSnapshot& snap, std::optional<int64_t> day) {
  StreamRankReply reply;
  Tensor features;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = versions_.find(snap.version());
    if (it == versions_.end()) {
      return Status::Internal("no training universe recorded for version ",
                              snap.version());
    }
    const int64_t latest = dataset_.num_days() - 1;
    if (latest < dataset_.first_day()) {
      return Status::Unavailable("feature window not warm yet");
    }
    if (day.has_value() && *day != latest) {
      // Only the latest day is served; refusing beats serving another
      // day's features under this day's cache key.
      return Status::Unavailable("stream window is at day ", latest,
                                 ", cannot serve day ", *day);
    }
    reply.model_version = snap.version();
    reply.universe_version = it->second.universe_version;
    reply.day = latest;
    reply.slots = it->second.slots;
    reply.stale = it->second.universe_version != universe_version_;
    features = dataset_.Features(latest, reply.slots);
  }
  // Score outside the lock: the snapshot is pinned by the caller and the
  // features are a private copy, so a concurrent Step()/retrain cannot
  // shear the reply.
  const Tensor scores = snap.Score(features);
  RTGCN_CHECK_EQ(scores.numel(), static_cast<int64_t>(reply.slots.size()));
  reply.scores.assign(scores.data(), scores.data() + scores.numel());
  return reply;
}

Result<std::vector<float>> RollingPipeline::ScoreForServe(
    const serve::ModelSnapshot& snap, int64_t day) {
  RTGCN_ASSIGN_OR_RETURN(const StreamRankReply reply, ScoreLatest(snap, day));
  std::vector<float> full(static_cast<size_t>(num_slots()),
                          std::numeric_limits<float>::lowest());
  for (size_t i = 0; i < reply.slots.size(); ++i) {
    full[static_cast<size_t>(reply.slots[i])] = reply.scores[i];
  }
  return full;
}

serve::InferenceServer::ScoreFn RollingPipeline::ServeScoreFn() {
  return [this](const serve::ModelSnapshot& snap, int64_t day) {
    return ScoreForServe(snap, day);
  };
}

serve::HealthState RollingPipeline::Health() const {
  if (registry_.Current() == nullptr) return serve::HealthState::kDegraded;
  if (registry_.consecutive_reload_failures() >= kDegradedReloadFailures) {
    return serve::HealthState::kDegraded;
  }
  return serve::HealthState::kServing;
}

int64_t RollingPipeline::day() const { return source_->day(); }

int64_t RollingPipeline::universe_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return universe_version_;
}

int64_t RollingPipeline::retrains() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retrains_;
}

int64_t RollingPipeline::last_retrain_day() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_retrain_day_;
}

double RollingPipeline::last_retrain_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_retrain_seconds_;
}

}  // namespace rtgcn::stream
