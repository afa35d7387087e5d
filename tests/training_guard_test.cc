// Fault-tolerance tests: TrainingGuard policies, the finite-check autograd
// mode, ClipGradNorm non-finite handling, and end-to-end divergence
// recovery (injected NaN -> guard detects -> rollback -> LR decay ->
// training finishes with finite metrics).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "autograd/finite_check.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "harness/gradient_predictor.h"
#include "market/dataset.h"
#include "nn/linear.h"
#include "nn/temporal_conv.h"
#include "tensor/ops.h"

namespace rtgcn::harness {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------------------
// TrainingGuard unit tests
// ---------------------------------------------------------------------------

TEST(TrainingGuardTest, SkipPolicyRecordsNonFiniteLoss) {
  GuardOptions options;
  options.policy = GuardPolicy::kSkip;
  TrainingGuard guard(options, 0.01f);
  EXPECT_TRUE(guard.StepLossOk(1.0));
  guard.OnGoodStep(1.0);
  EXPECT_FALSE(guard.StepLossOk(kNan));
  EXPECT_FALSE(guard.StepLossOk(-kInf));
  EXPECT_FALSE(guard.aborted());
  EXPECT_FALSE(guard.rollback_pending());
  ASSERT_EQ(guard.events().size(), 2u);
  EXPECT_EQ(guard.events()[0].reason, "nonfinite_loss");
  EXPECT_EQ(guard.events()[0].action, GuardPolicy::kSkip);
  EXPECT_EQ(guard.interventions(), 2);
  // Healthy steps still pass after interventions.
  EXPECT_TRUE(guard.StepLossOk(1.1));
}

TEST(TrainingGuardTest, SpikeDetectionArmsAfterWarmup) {
  GuardOptions options;
  options.spike_factor = 10.0f;
  options.spike_warmup_steps = 5;
  options.ema_decay = 0.5f;
  TrainingGuard guard(options, 0.01f);
  // During warmup even an enormous loss passes (the EMA has no history).
  EXPECT_TRUE(guard.StepLossOk(1e9));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(guard.StepLossOk(1.0));
    guard.OnGoodStep(1.0);
  }
  // Armed: 20x the EMA of ~1.0 is a spike, 2x is not.
  EXPECT_TRUE(guard.StepLossOk(2.0));
  guard.OnGoodStep(2.0);
  EXPECT_FALSE(guard.StepLossOk(20.0));
  ASSERT_FALSE(guard.events().empty());
  EXPECT_EQ(guard.events().back().reason, "loss_spike");
  EXPECT_GT(guard.events().back().ema_loss, 0.0);
}

TEST(TrainingGuardTest, NonFiniteGradNormIsViolation) {
  TrainingGuard guard(GuardOptions{}, 0.01f);
  EXPECT_TRUE(guard.GradNormOk(3.5f));
  EXPECT_FALSE(guard.GradNormOk(kInf));
  EXPECT_FALSE(guard.GradNormOk(kNan));
  ASSERT_EQ(guard.events().size(), 2u);
  EXPECT_EQ(guard.events()[0].reason, "nonfinite_grad_norm");
}

TEST(TrainingGuardTest, AbortPolicyStopsImmediately) {
  GuardOptions options;
  options.policy = GuardPolicy::kAbort;
  TrainingGuard guard(options, 0.01f);
  EXPECT_FALSE(guard.StepLossOk(kNan));
  EXPECT_TRUE(guard.aborted());
  EXPECT_EQ(guard.events()[0].action, GuardPolicy::kAbort);
}

TEST(TrainingGuardTest, InterventionBudgetTurnsIntoAbort) {
  GuardOptions options;
  options.policy = GuardPolicy::kSkip;
  options.max_interventions = 2;
  TrainingGuard guard(options, 0.01f);
  EXPECT_FALSE(guard.StepLossOk(kNan));
  EXPECT_FALSE(guard.StepLossOk(kNan));
  EXPECT_FALSE(guard.aborted());
  EXPECT_FALSE(guard.StepLossOk(kNan));  // budget exhausted
  EXPECT_TRUE(guard.aborted());
  EXPECT_EQ(guard.events().back().action, GuardPolicy::kAbort);
}

TEST(TrainingGuardTest, RollbackDecaysLearningRate) {
  GuardOptions options;
  options.policy = GuardPolicy::kRollback;
  options.lr_decay = 0.5f;
  TrainingGuard guard(options, 0.08f);
  EXPECT_FALSE(guard.StepLossOk(kNan));
  EXPECT_TRUE(guard.rollback_pending());
  EXPECT_FLOAT_EQ(guard.CommitRollback(), 0.04f);
  EXPECT_FALSE(guard.rollback_pending());
  EXPECT_FLOAT_EQ(guard.current_lr(), 0.04f);
  EXPECT_FALSE(guard.GradNormOk(kInf));
  EXPECT_FLOAT_EQ(guard.CommitRollback(), 0.02f);
  // The committed LR is reflected in the event log.
  EXPECT_FLOAT_EQ(guard.events().back().lr_after, 0.02f);
}

// ---------------------------------------------------------------------------
// Satellite (a): ClipGradNorm must not corrupt gradients on NaN/Inf norms.
// ---------------------------------------------------------------------------

TEST(ClipGradNormTest, NanGradLeavesGradientsUntouchedAndReportsNan) {
  auto p = ag::MakeVariable(Tensor::Zeros({3}), /*requires_grad=*/true);
  p->grad = Tensor({3});
  p->grad.data()[0] = 1.0f;
  p->grad.data()[1] = kNan;
  p->grad.data()[2] = 2.0f;
  ag::Sgd optimizer({p}, 0.1f);
  const float norm = optimizer.ClipGradNorm(1.0f);
  EXPECT_TRUE(std::isnan(norm));
  // Gradients untouched: before the fix every entry became NaN.
  EXPECT_FLOAT_EQ(p->grad.data()[0], 1.0f);
  EXPECT_TRUE(std::isnan(p->grad.data()[1]));
  EXPECT_FLOAT_EQ(p->grad.data()[2], 2.0f);
}

TEST(ClipGradNormTest, InfGradReportsInfInsteadOfZeroingGradients) {
  auto p = ag::MakeVariable(Tensor::Zeros({2}), /*requires_grad=*/true);
  p->grad = Tensor({2});
  p->grad.data()[0] = kInf;
  p->grad.data()[1] = 3.0f;
  ag::Adam optimizer({p}, 0.1f);
  const float norm = optimizer.ClipGradNorm(1.0f);
  EXPECT_TRUE(std::isinf(norm));
  // Before the fix max_norm/Inf == 0 silently zeroed every gradient.
  EXPECT_TRUE(std::isinf(p->grad.data()[0]));
  EXPECT_FLOAT_EQ(p->grad.data()[1], 3.0f);
}

TEST(ClipGradNormTest, FiniteNormStillClips) {
  auto p = ag::MakeVariable(Tensor::Zeros({1}), /*requires_grad=*/true);
  p->grad = Tensor({1});
  p->grad.data()[0] = 10.0f;
  ag::Sgd optimizer({p}, 0.1f);
  const float norm = optimizer.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(norm, 10.0f);  // pre-clip norm is reported
  EXPECT_FLOAT_EQ(p->grad.data()[0], 1.0f);
}

// ---------------------------------------------------------------------------
// Finite-check autograd mode
// ---------------------------------------------------------------------------

class FiniteCheckScope {
 public:
  FiniteCheckScope() {
    ag::FiniteChecks::Reset();
    ag::FiniteChecks::set_enabled(true);
  }
  ~FiniteCheckScope() {
    ag::FiniteChecks::set_enabled(false);
    ag::FiniteChecks::Reset();
  }
};

TEST(FiniteCheckTest, NamesForwardOpProducingNonFinite) {
  FiniteCheckScope scope;
  Tensor x({2});
  x.data()[0] = 1.0f;
  x.data()[1] = 0.0f;  // log(0) = -inf at flat index 1
  ag::VarPtr y = ag::Log(ag::Constant(x));
  EXPECT_TRUE(ag::FiniteChecks::tripped());
  EXPECT_EQ(ag::FiniteChecks::first().op, "Log");
  EXPECT_EQ(ag::FiniteChecks::first().phase, "forward");
  EXPECT_EQ(ag::FiniteChecks::first().index, 1);
  EXPECT_TRUE(std::isinf(ag::FiniteChecks::first().value));
  // Only the first offender is recorded.
  ag::Exp(ag::Constant(Tensor::Full({1}, 1000.0f)));  // overflows to inf
  EXPECT_EQ(ag::FiniteChecks::first().op, "Log");
}

TEST(FiniteCheckTest, NamesBackwardOpReceivingNonFiniteGradient) {
  FiniteCheckScope scope;
  // w -> MulScalar -> Log: forward values are finite (log of a subnormal),
  // but Log's backward divides by ~1e-39 and hands MulScalar an Inf grad.
  auto w = ag::MakeVariable(Tensor::Full({1}, 1.0f), /*requires_grad=*/true);
  ag::VarPtr x = ag::MulScalar(w, 1e-39f);
  ag::VarPtr loss = ag::SumAll(ag::Log(x));
  EXPECT_FALSE(ag::FiniteChecks::tripped()) << "forward should be finite";
  ag::Backward(loss);
  EXPECT_TRUE(ag::FiniteChecks::tripped());
  EXPECT_EQ(ag::FiniteChecks::first().op, "MulScalar");
  EXPECT_EQ(ag::FiniteChecks::first().phase, "backward");
}

// The fused ops are single tape nodes, so they must be the ones named: in
// the forward when their output is non-finite, and in the backward when
// the gradient they receive is. sqrt at an exact 0 is finite forward but
// hands its input an infinite gradient.
TEST(FiniteCheckTest, NamesFusedRankingLossInBothPhases) {
  FiniteCheckScope scope;
  Tensor nan_scores({3}, {0.3f, kNan, -0.1f});
  const Tensor labels({3}, {0.03f, 0.02f, 0.01f});
  ag::PairwiseRankingLoss(ag::Constant(nan_scores), labels);
  EXPECT_TRUE(ag::FiniteChecks::tripped());
  EXPECT_EQ(ag::FiniteChecks::first().op, "PairwiseRankingLoss");
  EXPECT_EQ(ag::FiniteChecks::first().phase, "forward");

  ag::FiniteChecks::Reset();
  // Scores ordered like the labels: no misordered pair, loss exactly 0.
  auto s = ag::MakeVariable(Tensor({3}, {0.3f, 0.2f, 0.1f}),
                            /*requires_grad=*/true);
  ag::VarPtr loss = ag::SumAll(ag::Sqrt(ag::PairwiseRankingLoss(s, labels)));
  EXPECT_FALSE(ag::FiniteChecks::tripped()) << "forward should be finite";
  ag::Backward(loss);
  EXPECT_TRUE(ag::FiniteChecks::tripped());
  EXPECT_EQ(ag::FiniteChecks::first().op, "PairwiseRankingLoss");
  EXPECT_EQ(ag::FiniteChecks::first().phase, "backward");
}

TEST(FiniteCheckTest, NamesFusedTemporalBlockInBothPhases) {
  FiniteCheckScope scope;
  Rng rng(5);
  nn::TemporalConvBlock block(2, 2, 3, &rng, /*dilation=*/1, /*stride=*/2,
                              /*dropout=*/0.0f);
  Tensor x = Tensor::Full({4, 3, 2}, 0.5f);
  x.data()[7] = kNan;
  block.Forward(ag::Constant(x), &rng);
  EXPECT_TRUE(ag::FiniteChecks::tripped());
  EXPECT_EQ(ag::FiniteChecks::first().op, "TemporalConvBlock");
  EXPECT_EQ(ag::FiniteChecks::first().phase, "forward");

  // A NaN in the residual projection's filter reaches the output only
  // through the final ReLU, which maps it to 0.
  ag::FiniteChecks::Reset();
  x.data()[7] = 0.5f;
  for (const auto& [name, p] : block.NamedParameters()) {
    if (name == "m2.v") p->value.data()[0] = kNan;
  }
  block.Forward(ag::Constant(x), &rng);
  EXPECT_TRUE(ag::FiniteChecks::tripped());
  EXPECT_EQ(ag::FiniteChecks::first().op, "TemporalConvBlock");
  EXPECT_EQ(ag::FiniteChecks::first().phase, "forward");

  ag::FiniteChecks::Reset();
  // Zero filters and biases (a zero v gives w = 0): the output is exactly
  // 0 everywhere.
  nn::TemporalConvBlock zero(2, 2, 3, &rng, 1, 2, 0.0f);
  for (const auto& p : zero.Parameters()) p->value = Tensor::Zeros(p->shape());
  auto input = ag::MakeVariable(Tensor::Full({4, 3, 2}, 0.5f),
                                /*requires_grad=*/true);
  ag::VarPtr loss = ag::SumAll(ag::Sqrt(zero.Forward(input, &rng)));
  EXPECT_FALSE(ag::FiniteChecks::tripped()) << "forward should be finite";
  ag::Backward(loss);
  EXPECT_TRUE(ag::FiniteChecks::tripped());
  EXPECT_EQ(ag::FiniteChecks::first().op, "TemporalConvBlock");
  EXPECT_EQ(ag::FiniteChecks::first().phase, "backward");
}

TEST(FiniteCheckTest, DisabledModeRecordsNothing) {
  ag::FiniteChecks::set_enabled(false);
  ag::FiniteChecks::Reset();
  ag::VarPtr y = ag::Log(ag::Constant(Tensor::Zeros({1})));
  EXPECT_FALSE(ag::FiniteChecks::tripped());
}

TEST(FiniteCheckTest, FirstNonFiniteScanFindsLeftmostOffender) {
  Tensor t({1000});
  for (int64_t i = 0; i < 1000; ++i) t.data()[i] = 1.0f;
  EXPECT_TRUE(CheckFinite(t));
  EXPECT_EQ(FirstNonFinite(t), -1);
  t.data()[700] = kInf;
  t.data()[321] = kNan;
  EXPECT_FALSE(CheckFinite(t));
  EXPECT_EQ(FirstNonFinite(t), 321);
}

// ---------------------------------------------------------------------------
// End-to-end divergence recovery
// ---------------------------------------------------------------------------

// Linear predictor whose Forward can be sabotaged to emit NaN scores on one
// specific training step — simulating a divergence mid-run.
class SabotagedPredictor : public GradientPredictor {
 public:
  explicit SabotagedPredictor(int64_t num_features)
      : rng_(1), linear_(num_features, 1, &rng_) {}

  std::string name() const override { return "Sabotaged"; }

  /// Arms the fault: the `step`-th training Forward (0-based) emits NaNs.
  /// `repeat` > 1 sabotages that many consecutive steps.
  void Arm(int64_t step, int64_t repeat = 1) {
    fire_begin_ = step;
    fire_end_ = step + repeat;
    calls_ = 0;
    armed_ = true;
  }
  void Disarm() { armed_ = false; }

 protected:
  nn::Module* module() override { return &linear_; }
  ag::VarPtr Forward(const Tensor& features, Rng*) override {
    const int64_t t_len = features.dim(0);
    const int64_t n = features.dim(1);
    const int64_t d = features.dim(2);
    auto x = ag::Constant(features);
    auto last = ag::Reshape(ag::SliceOp(x, 0, t_len - 1, t_len), {n, d});
    ag::VarPtr scores = ag::Reshape(linear_.Forward(last), {n});
    if (armed_) {
      const int64_t call = calls_++;
      if (call >= fire_begin_ && call < fire_end_) {
        scores = ag::MulScalar(scores, kNan);
      }
    }
    return scores;
  }
  float alpha() const override { return 0.0f; }

 private:
  Rng rng_;
  nn::Linear linear_;
  bool armed_ = false;
  int64_t fire_begin_ = 0;
  int64_t fire_end_ = 0;
  int64_t calls_ = 0;
};

market::WindowDataset SmallPanel() {
  Rng rng(7);
  const int64_t days = 60, n = 8;
  Tensor prices({days, n});
  for (int64_t i = 0; i < n; ++i) prices.at({0, i}) = 100.0f;
  for (int64_t t = 1; t < days; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      const float drift = (i % 2 == 0) ? 0.01f : -0.01f;
      const float noise = static_cast<float>(rng.Gaussian(0, 0.001));
      prices.at({t, i}) = prices.at({t - 1, i}) * (1.0f + drift + noise);
    }
  }
  return market::WindowDataset(prices, 5, 2);
}

TEST(DivergenceRecoveryTest, RollbackRestoresSnapshotAndDecaysLr) {
  market::WindowDataset data = SmallPanel();
  market::DatasetSplit split = SplitByDay(data, 45);
  SabotagedPredictor model(2);
  TrainOptions opts;
  opts.epochs = 8;
  opts.learning_rate = 1e-2f;
  opts.guard.policy = GuardPolicy::kRollback;
  opts.guard.lr_decay = 0.5f;
  // Blow up in the middle of epoch 2.
  model.Arm(2 * static_cast<int64_t>(split.train_days.size()) + 3);
  model.Fit(data, split.train_days, opts);
  model.Disarm();

  const FitStats& stats = model.fit_stats();
  EXPECT_FALSE(stats.guard_aborted);
  EXPECT_EQ(stats.guard_rollbacks, 1);
  ASSERT_EQ(stats.guard_events.size(), 1u);
  EXPECT_EQ(stats.guard_events[0].reason, "nonfinite_loss");
  EXPECT_EQ(stats.guard_events[0].action, GuardPolicy::kRollback);
  EXPECT_FLOAT_EQ(stats.guard_events[0].lr_after, 0.5e-2f);
  EXPECT_FALSE(stats.guard_events[0].ToString().empty());

  // Training survived: every test-day prediction is finite.
  for (int64_t day : split.test_days) {
    EXPECT_TRUE(CheckFinite(model.Predict(data, day)));
  }
}

TEST(DivergenceRecoveryTest, RollbackPrefersOnDiskCheckpoint) {
  namespace fs = std::filesystem;
  const std::string dir = "/tmp/rtgcn_guard_ckpt_test";
  fs::remove_all(dir);

  market::WindowDataset data = SmallPanel();
  market::DatasetSplit split = SplitByDay(data, 45);
  SabotagedPredictor model(2);
  TrainOptions opts;
  opts.epochs = 8;
  opts.learning_rate = 1e-2f;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every = 2;
  opts.resume = false;
  opts.guard.policy = GuardPolicy::kRollback;
  // Blow up mid-epoch 5; the newest checkpoint (epoch 4) is the target.
  model.Arm(5 * static_cast<int64_t>(split.train_days.size()) + 1);
  model.Fit(data, split.train_days, opts);
  model.Disarm();

  EXPECT_EQ(model.fit_stats().guard_rollbacks, 1);
  EXPECT_FALSE(model.fit_stats().guard_aborted);
  for (int64_t day : split.test_days) {
    EXPECT_TRUE(CheckFinite(model.Predict(data, day)));
  }
  fs::remove_all(dir);
}

TEST(DivergenceRecoveryTest, SkipPolicyDropsBadStepsAndFinishes) {
  market::WindowDataset data = SmallPanel();
  market::DatasetSplit split = SplitByDay(data, 45);
  SabotagedPredictor model(2);
  TrainOptions opts;
  opts.epochs = 4;
  opts.learning_rate = 1e-2f;
  opts.guard.policy = GuardPolicy::kSkip;
  model.Arm(/*step=*/3, /*repeat=*/3);
  model.Fit(data, split.train_days, opts);
  model.Disarm();

  EXPECT_EQ(model.fit_stats().guard_events.size(), 3u);
  EXPECT_FALSE(model.fit_stats().guard_aborted);
  EXPECT_EQ(model.fit_stats().guard_rollbacks, 0);
  for (int64_t day : split.test_days) {
    EXPECT_TRUE(CheckFinite(model.Predict(data, day)));
  }
}

TEST(DivergenceRecoveryTest, PersistentDivergenceAbortsWithinBudget) {
  market::WindowDataset data = SmallPanel();
  market::DatasetSplit split = SplitByDay(data, 45);
  SabotagedPredictor model(2);
  TrainOptions opts;
  opts.epochs = 50;
  opts.guard.policy = GuardPolicy::kSkip;
  opts.guard.max_interventions = 5;
  model.Arm(/*step=*/0, /*repeat=*/1 << 30);  // every step is bad
  model.Fit(data, split.train_days, opts);
  model.Disarm();

  EXPECT_TRUE(model.fit_stats().guard_aborted);
  EXPECT_EQ(model.fit_stats().guard_events.size(), 6u);  // budget + 1
}

TEST(DivergenceRecoveryTest, DisabledGuardMatchesUnguardedTrainer) {
  market::WindowDataset data = SmallPanel();
  market::DatasetSplit split = SplitByDay(data, 45);
  SabotagedPredictor guarded(2);
  SabotagedPredictor unguarded(2);
  TrainOptions opts;
  opts.epochs = 3;
  TrainOptions off = opts;
  off.guard.enabled = false;
  guarded.Fit(data, split.train_days, opts);
  unguarded.Fit(data, split.train_days, off);
  // A healthy run takes the identical numeric path with or without guard.
  for (int64_t day : split.test_days) {
    EXPECT_TRUE(
        AllClose(guarded.Predict(data, day), unguarded.Predict(data, day)));
  }
  EXPECT_TRUE(guarded.fit_stats().guard_events.empty());
}

}  // namespace
}  // namespace rtgcn::harness
