#include "harness/gradient_predictor.h"

#include <cmath>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/loss.h"
#include "harness/checkpoint.h"
#include "nn/serialize.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace rtgcn::harness {

namespace {

// Registry pointers are stable for process life, so resolve them once.
struct TrainMetrics {
  obs::Counter* steps;
  obs::Counter* epochs;
  obs::Histogram* step_us;
};

const TrainMetrics& GlobalTrainMetrics() {
  static const TrainMetrics m{
      obs::Registry::Global().GetCounter("train.steps"),
      obs::Registry::Global().GetCounter("train.epochs"),
      obs::Registry::Global().GetHistogram(
          "train.step_us", obs::BucketSpec::Exponential2(40))};
  return m;
}

// In-memory fallback rollback target for runs without a checkpoint_dir:
// a deep copy of everything Fit needs to replay an epoch.
struct EpochSnapshot {
  std::vector<Tensor> params;
  ag::OptimizerState optimizer;
  Rng::State rng;
  std::vector<int64_t> day_order;
  int64_t epoch = 0;
  bool valid = false;
};

EpochSnapshot TakeSnapshot(nn::Module* mod, const ag::Optimizer& optimizer,
                           const Rng& rng, const std::vector<int64_t>& days,
                           int64_t epoch) {
  EpochSnapshot snap;
  for (const auto& p : mod->Parameters()) snap.params.push_back(p->value.Clone());
  snap.optimizer = optimizer.State();
  snap.rng = rng.GetState();
  snap.day_order = days;
  snap.epoch = epoch;
  snap.valid = true;
  return snap;
}

void RestoreSnapshot(const EpochSnapshot& snap, nn::Module* mod,
                     ag::Optimizer* optimizer, Rng* rng,
                     std::vector<int64_t>* days, int64_t* epoch) {
  std::vector<ag::VarPtr> params = mod->Parameters();
  RTGCN_CHECK_EQ(params.size(), snap.params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snap.params[i].Clone();
    params[i]->ZeroGrad();
  }
  optimizer->LoadState(snap.optimizer).Abort();
  rng->SetState(snap.rng);
  *days = snap.day_order;
  *epoch = snap.epoch;
}

}  // namespace

ag::VarPtr GradientPredictor::Loss(const ag::VarPtr& scores,
                                   const Tensor& labels) {
  return core::CombinedLoss(scores, labels, alpha());
}

double GradientPredictor::TrainStep(const Tensor& features,
                                    const Tensor& labels,
                                    ag::Optimizer* optimizer,
                                    const TrainOptions& options, Rng* rng) {
  obs::Span span("fit.step", "fit");
  // Destructor-driven so guard early-outs still count: a skipped step paid
  // for its forward pass and belongs in the step-time distribution.
  struct StepRecord {
    uint64_t start_us = obs::NowMicros();
    ~StepRecord() {
      const TrainMetrics& m = GlobalTrainMetrics();
      m.steps->Increment();
      m.step_us->Record(obs::ElapsedMicrosSince(start_us));
    }
  } record;
  optimizer->ZeroGrad();
  ag::VarPtr scores = Forward(features, rng);
  ag::VarPtr loss = Loss(scores, labels);
  const double loss_value = loss->value.item();
  TrainingGuard* guard = this->guard();
  if (guard && !guard->StepLossOk(loss_value)) return loss_value;
  ag::Backward(loss);
  const float norm = optimizer->ClipGradNorm(options.grad_clip);
  if (guard && !guard->GradNormOk(norm)) return loss_value;
  optimizer->Step();
  if (guard) guard->OnGoodStep(loss_value);
  return loss_value;
}

void GradientPredictor::Fit(const market::WindowDataset& data,
                            const std::vector<int64_t>& train_days,
                            const TrainOptions& options) {
  RTGCN_CHECK(!train_days.empty());
  Rng rng(options.seed);
  nn::Module* mod = module();
  mod->SetTraining(true);
  ag::Adam optimizer(mod->Parameters(), options.learning_rate, 0.9f, 0.999f,
                     1e-8f, options.weight_decay);
  guard_ = options.guard.enabled
               ? std::make_unique<TrainingGuard>(options.guard,
                                                 options.learning_rate)
               : nullptr;

  std::vector<int64_t> days = train_days;
  int64_t start_epoch = 0;
  std::unique_ptr<CheckpointManager> checkpoints;
  if (!options.checkpoint_dir.empty()) {
    checkpoints = std::make_unique<CheckpointManager>(CheckpointManager::Options{
        options.checkpoint_dir, options.checkpoint_every,
        options.checkpoint_keep});
    checkpoints->Init().Abort();
    if (options.resume) {
      nn::TrainingState state;
      const Status status = checkpoints->LoadLatest(mod, &state);
      if (status.ok()) {
        start_epoch = state.epoch;
        if (state.has_optimizer) optimizer.LoadState(state.optimizer).Abort();
        if (state.has_rng) rng.SetState(state.rng);
        if (state.has_trainer && state.day_order.size() == days.size()) {
          // Restore the shuffle-in-progress so the next epoch's shuffle
          // permutes exactly what the uninterrupted run would have seen.
          days = state.day_order;
        }
        RTGCN_LOG(Info) << name() << " resumed from "
                        << options.checkpoint_dir << " at epoch "
                        << start_epoch;
      } else if (status.code() != StatusCode::kNotFound) {
        RTGCN_LOG(Warning) << name() << " resume failed: "
                           << status.ToString();
      }
    }
  }

  const bool rollback_armed =
      guard_ && options.guard.policy == GuardPolicy::kRollback;
  EpochSnapshot snapshot;

  // Cumulative baseline: the telemetry delta at the end isolates this Fit's
  // contribution to the process-global registry.
  const obs::RegistrySnapshot fit_base = obs::Registry::Global().Snapshot();
  fit_stats_.telemetry = FitTelemetry{};

  Stopwatch watch;
  Stopwatch epoch_watch;  // restarted per completed epoch, not per attempt
  int64_t rollbacks = 0;
  for (int64_t epoch = start_epoch; epoch < options.epochs;) {
    obs::Span epoch_span("fit.epoch", "fit");
    // The pre-shuffle epoch state is the rollback target: restoring it and
    // re-entering the loop replays this epoch (fresh shuffle, decayed LR).
    if (rollback_armed) {
      snapshot = TakeSnapshot(mod, optimizer, rng, days, epoch);
    }
    rng.Shuffle(&days);
    double epoch_loss = 0;
    bool rolled_back = false;
    for (int64_t day : days) {
      epoch_loss += TrainStep(data.Features(day), data.Labels(day), &optimizer,
                              options, &rng);
      if (guard_ && guard_->aborted()) break;
      if (guard_ && guard_->rollback_pending()) {
        // Prefer the newest on-disk checkpoint (PR 2's CheckpointManager);
        // fall back to the in-memory epoch snapshot.
        bool restored = false;
        if (checkpoints) {
          nn::TrainingState state;
          if (checkpoints->LoadLatest(mod, &state).ok()) {
            if (state.has_optimizer) {
              optimizer.LoadState(state.optimizer).Abort();
            }
            if (state.has_rng) rng.SetState(state.rng);
            if (state.has_trainer && state.day_order.size() == days.size()) {
              days = state.day_order;
            }
            for (auto& p : mod->Parameters()) p->ZeroGrad();
            epoch = state.epoch;
            restored = true;
          }
        }
        if (!restored && snapshot.valid) {
          RestoreSnapshot(snapshot, mod, &optimizer, &rng, &days,
                          &epoch);
          restored = true;
        }
        const float new_lr = guard_->CommitRollback();
        if (restored) {
          optimizer.SetLearningRate(new_lr);
          ++rollbacks;
          rolled_back = true;
          RTGCN_LOG(Warning) << name() << " rolled back to epoch " << epoch
                             << ", lr " << new_lr;
        } else {
          // Nothing to restore (first epoch, no checkpoint yet): keep the
          // decayed LR and continue — the bad step was already skipped.
          optimizer.SetLearningRate(new_lr);
        }
        if (rolled_back) break;
      }
    }
    if (guard_ && guard_->aborted()) {
      RTGCN_LOG(Error) << name() << " training aborted by guard after "
                       << guard_->interventions() << " interventions";
      break;
    }
    if (rolled_back) continue;
    if (options.verbose) {
      RTGCN_LOG(Info) << name() << " epoch " << epoch << " loss "
                      << epoch_loss / static_cast<double>(days.size());
    }
    ++epoch;
    GlobalTrainMetrics().epochs->Increment();
    fit_stats_.telemetry.epoch_seconds.push_back(epoch_watch.ElapsedSeconds());
    epoch_watch.Restart();
    if (checkpoints &&
        (checkpoints->ShouldSave(epoch) || epoch == options.epochs)) {
      nn::TrainingState state;
      state.optimizer = optimizer.State();
      state.has_optimizer = true;
      state.rng = rng.GetState();
      state.has_rng = true;
      state.epoch = epoch;
      state.day_cursor = 0;
      state.day_order = days;
      state.has_trainer = true;
      const Status status = checkpoints->Save(*mod, state);
      if (!status.ok()) {
        RTGCN_LOG(Warning) << name() << " checkpoint save failed: "
                           << status.ToString();
      }
    }
  }
  fit_stats_.train_seconds = watch.ElapsedSeconds();
  fit_stats_.epochs = options.epochs;
  fit_stats_.telemetry.metrics =
      obs::Registry::Global().Snapshot().DeltaSince(fit_base);
  if (guard_) {
    fit_stats_.guard_events = guard_->events();
    fit_stats_.guard_rollbacks = rollbacks;
    fit_stats_.guard_aborted = guard_->aborted();
    guard_.reset();
  } else {
    fit_stats_.guard_events.clear();
    fit_stats_.guard_rollbacks = 0;
    fit_stats_.guard_aborted = false;
  }
  mod->SetTraining(false);
}

Tensor GradientPredictor::Predict(const market::WindowDataset& data,
                                  int64_t day) {
  module()->SetTraining(false);
  return Score(data.Features(day));
}

Tensor GradientPredictor::Score(const Tensor& features) {
  RTGCN_CHECK(!module()->training()) << "Score needs the module in eval mode";
  ag::NoGradGuard no_grad;
  // Eval-mode dropout returns before it draws, so no Rng is needed.
  return Forward(features, /*rng=*/nullptr)->value;
}

Status GradientPredictor::ExportSnapshot(const std::string& path) {
  return nn::SaveParameters(*module(), path);
}

}  // namespace rtgcn::harness
