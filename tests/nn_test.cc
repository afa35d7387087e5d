#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "nn/linear.h"
#include "nn/rnn.h"
#include "nn/temporal_conv.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rtgcn::nn {
namespace {

TEST(ModuleTest, ParameterCollectionRecurses) {
  Rng rng(1);
  struct Outer : Module {
    Outer(Rng* rng) : a(3, 4, rng), b(4, 2, rng) {
      RegisterModule(&a);
      RegisterModule(&b);
    }
    Linear a, b;
  } outer(&rng);
  // a: weight 12 + bias 4; b: weight 8 + bias 2.
  EXPECT_EQ(outer.Parameters().size(), 4u);
  EXPECT_EQ(outer.NumParameters(), 26);
}

TEST(ModuleTest, TrainingModePropagates) {
  Rng rng(1);
  struct Outer : Module {
    Outer(Rng* rng) : a(2, 2, rng) { RegisterModule(&a); }
    Linear a;
  } outer(&rng);
  EXPECT_TRUE(outer.training());
  outer.SetTraining(false);
  EXPECT_FALSE(outer.a.training());
}

TEST(LinearTest, MatchesManualAffine) {
  Rng rng(2);
  Linear lin(3, 2, &rng);
  auto x = ag::Constant(RandomGaussian({4, 3}, 0, 1, &rng));
  auto y = lin.Forward(x);
  Tensor expected =
      Add(MatMul(x->value, lin.weight()->value), lin.bias()->value);
  EXPECT_TRUE(AllClose(y->value, expected));
}

TEST(LinearTest, HandlesHigherRankInput) {
  Rng rng(3);
  Linear lin(3, 5, &rng);
  auto x = ag::Constant(RandomGaussian({2, 4, 3}, 0, 1, &rng));
  auto y = lin.Forward(x);
  EXPECT_EQ(y->shape(), (Shape{2, 4, 5}));
}

TEST(LinearTest, GradientsFlowToWeights) {
  Rng rng(4);
  Linear lin(3, 2, &rng);
  auto x = ag::Constant(RandomGaussian({4, 3}, 0, 1, &rng));
  ag::Backward(ag::SumAll(ag::Square(lin.Forward(x))));
  EXPECT_TRUE(lin.weight()->grad.defined());
  EXPECT_TRUE(lin.bias()->grad.defined());
}

// ---------------------------------------------------------------------------
// Temporal conv block
// ---------------------------------------------------------------------------

// Whether y[t] equals y2[t] for every time t in [lo, hi), byte for byte.
bool SameTimes(const Tensor& y, const Tensor& y2, int64_t lo, int64_t hi) {
  const int64_t row = y.numel() / y.dim(0);
  return std::equal(y.data() + lo * row, y.data() + hi * row,
                    y2.data() + lo * row);
}

TEST(TemporalConvBlockTest, ShapeAndResidualAlignment) {
  Rng rng(10);
  TemporalConvBlock block(4, 8, 3, &rng, 1, /*stride=*/2, 0.0f);
  block.SetTraining(false);
  auto x = ag::Constant(RandomGaussian({15, 3, 4}, 0, 1, &rng));
  auto y = block.Forward(x, &rng);
  EXPECT_EQ(y->value.dim(0), block.out_length(15));
  EXPECT_EQ(y->value.dim(0), 4);  // ceil(15/4)
  EXPECT_EQ(y->value.dim(2), 8);
}

TEST(TemporalConvBlockTest, OutputsAreNonNegativeAfterFinalRelu) {
  Rng rng(11);
  TemporalConvBlock block(2, 2, 3, &rng, 1, 1, 0.0f);
  block.SetTraining(false);
  auto x = ag::Constant(RandomGaussian({6, 2, 2}, 0, 1, &rng));
  auto y = block.Forward(x, &rng);
  EXPECT_GE(MinAll(y->value), 0.0f);
}

TEST(TemporalConvBlockTest, CausalityNoFutureLeakage) {
  // Changing inputs after time t must not change output at time t.
  Rng rng(7);
  TemporalConvBlock block(2, 3, 3, &rng, /*dilation=*/2, /*stride=*/1, 0.0f);
  Tensor base = RandomGaussian({8, 4, 2}, 0, 1, &rng);
  ag::NoGradGuard no_grad;
  Tensor y1 = block.Forward(ag::Constant(base), &rng)->value;
  Tensor modified = base.Clone();
  // Perturb the last two time-steps.
  for (int64_t i = 6 * 4 * 2; i < 8 * 4 * 2; ++i) modified.data()[i] += 10.0f;
  Tensor y2 = block.Forward(ag::Constant(modified), &rng)->value;
  // Outputs at times 0..5 must agree exactly.
  EXPECT_TRUE(SameTimes(y1, y2, 0, 6));
  // And the perturbed region must differ.
  EXPECT_FALSE(SameTimes(y1, y2, 6, 8));
}

TEST(TemporalConvBlockTest, StrideKeepsTimesAlignedToTheLastSample) {
  // Stride 2 twice over T = 8 keeps the times 3 and 7: y[0] sees x[0..3]
  // only, and the last input time reaches the last output.
  Rng rng(6);
  TemporalConvBlock block(2, 4, 3, &rng, /*dilation=*/1, /*stride=*/2, 0.0f);
  Tensor base = RandomGaussian({8, 5, 2}, 0, 1, &rng);
  ag::NoGradGuard no_grad;
  Tensor y1 = block.Forward(ag::Constant(base), &rng)->value;
  ASSERT_EQ(y1.dim(0), 2);
  Tensor later = base.Clone();
  for (int64_t i = 4 * 5 * 2; i < 8 * 5 * 2; ++i) later.data()[i] += 10.0f;
  Tensor y2 = block.Forward(ag::Constant(later), &rng)->value;
  EXPECT_TRUE(SameTimes(y1, y2, 0, 1));
  EXPECT_FALSE(SameTimes(y1, y2, 1, 2));
  Tensor last = base.Clone();
  for (int64_t i = 7 * 5 * 2; i < 8 * 5 * 2; ++i) last.data()[i] -= 10.0f;
  Tensor y3 = block.Forward(ag::Constant(last), &rng)->value;
  EXPECT_TRUE(SameTimes(y1, y3, 0, 1));
  EXPECT_FALSE(SameTimes(y1, y3, 1, 2));
}

TEST(TemporalConvBlockTest, KernelOneIsPointwiseInTime) {
  Rng rng(8);
  TemporalConvBlock block(3, 2, 1, &rng, 1, 1, 0.0f);
  Tensor x = RandomGaussian({4, 2, 3}, 0, 1, &rng);
  ag::NoGradGuard no_grad;
  Tensor y = block.Forward(ag::Constant(x), &rng)->value;
  EXPECT_EQ(y.shape(), (Shape{4, 2, 2}));
  // Time-step independence: same input row -> same output row.
  Tensor x2 = x.Clone();
  std::fill(x2.data(), x2.data() + 2 * 3, 0.0f);  // zero time 0 only
  Tensor y2 = block.Forward(ag::Constant(x2), &rng)->value;
  EXPECT_TRUE(SameTimes(y, y2, 1, 4));
}

TEST(TemporalConvBlockTest, WeightNormGradCheck) {
  Rng rng(9);
  TemporalConvBlock block(2, 2, 2, &rng, 1, 1, 0.0f);
  // Positive filters, biases and inputs keep every ReLU input positive, so
  // no probe crosses a kink.
  for (const auto& [name, p] : block.NamedParameters()) {
    float* v = p->value.data();
    for (int64_t i = 0; i < p->numel(); ++i) {
      v[i] = name.ends_with("bias") ? 0.1f : std::fabs(v[i]);
    }
  }
  auto x = ag::Constant(RandomUniform({5, 2, 2}, 0.2f, 0.6f, &rng));
  auto params = block.Parameters();
  std::vector<ag::VarPtr> inputs(params.begin(), params.end());
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(ag::Square(block.Forward(x, &rng)));
      },
      inputs));
}

// ---------------------------------------------------------------------------
// Recurrent cells
// ---------------------------------------------------------------------------

TEST(LstmTest, ShapesAndStatePropagation) {
  Rng rng(12);
  Lstm lstm(3, 8, &rng);
  auto x = ag::Constant(RandomGaussian({5, 4, 3}, 0, 1, &rng));
  auto last = lstm.ForwardLast(x);
  EXPECT_EQ(last->shape(), (Shape{4, 8}));
}

TEST(LstmTest, HiddenBounded) {
  Rng rng(13);
  Lstm lstm(2, 4, &rng);
  auto x = ag::Constant(RandomGaussian({20, 3, 2}, 0, 5, &rng));
  Tensor h = lstm.ForwardLast(x)->value;
  EXPECT_LE(MaxAll(h), 1.0f);   // o * tanh(c) ∈ (-1, 1)
  EXPECT_GE(MinAll(h), -1.0f);
}

TEST(LstmTest, LearnsSimpleTemporalTask) {
  // Predict the mean of the last two inputs: a task requiring memory.
  Rng rng(14);
  Lstm lstm(1, 8, &rng);
  Linear head(8, 1, &rng);
  std::vector<ag::VarPtr> params = lstm.Parameters();
  for (auto& p : head.Parameters()) params.push_back(p);
  ag::Adam opt(params, 0.02f);
  float final_loss = 1.0f;
  for (int step = 0; step < 300; ++step) {
    Tensor x = RandomGaussian({4, 8, 1}, 0, 1, &rng);
    Tensor target({8, 1});
    for (int64_t b = 0; b < 8; ++b) {
      target.data()[b] = 0.5f * (x.at({2, b, 0}) + x.at({3, b, 0}));
    }
    opt.ZeroGrad();
    auto pred = head.Forward(lstm.ForwardLast(ag::Constant(x)));
    auto loss = ag::MeanAll(ag::Square(ag::Sub(pred, ag::Constant(target))));
    ag::Backward(loss);
    opt.Step();
    final_loss = loss->value.item();
  }
  EXPECT_LT(final_loss, 0.2f);  // variance of target is 0.5
}

}  // namespace
}  // namespace rtgcn::nn
