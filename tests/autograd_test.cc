#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <future>
#include <thread>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rtgcn::ag {
namespace {

VarPtr Param(Tensor t) { return MakeVariable(std::move(t), true); }

TEST(VariableTest, LeafProperties) {
  auto v = Param(Tensor::Ones({2}));
  EXPECT_TRUE(v->is_leaf());
  EXPECT_TRUE(v->requires_grad);
  auto c = Constant(Tensor::Ones({2}));
  EXPECT_FALSE(c->requires_grad);
}

TEST(VariableTest, AccumulateGradReducesBroadcast) {
  auto v = Param(Tensor::Zeros({3}));
  v->AccumulateGrad(Tensor::Ones({4, 3}));
  EXPECT_TRUE(rtgcn::AllClose(v->grad, Tensor({3}, {4, 4, 4})));
  v->AccumulateGrad(Tensor::Ones({3}));
  EXPECT_TRUE(rtgcn::AllClose(v->grad, Tensor({3}, {5, 5, 5})));
}

TEST(BackwardTest, SimpleChain) {
  // loss = sum((x * 2 + 1)^2), dloss/dx = 2*(2x+1)*2
  auto x = Param(Tensor({2}, {1, 2}));
  auto y = SumAll(Square(AddScalar(MulScalar(x, 2.0f), 1.0f)));
  Backward(y);
  EXPECT_TRUE(rtgcn::AllClose(x->grad, Tensor({2}, {12, 20})));
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  // z = x*x + x  -> dz/dx = 2x + 1, exercise fan-out accumulation.
  auto x = Param(Tensor({1}, {3}));
  auto z = SumAll(Add(Mul(x, x), x));
  Backward(z);
  EXPECT_FLOAT_EQ(x->grad.data()[0], 7.0f);
}

TEST(BackwardTest, ReusedNodeOnlyFiresOnce) {
  auto x = Param(Tensor({1}, {2}));
  auto h = Mul(x, x);        // h = x^2
  auto z = SumAll(Mul(h, h));  // z = x^4, dz/dx = 4x^3 = 32
  Backward(z);
  EXPECT_FLOAT_EQ(x->grad.data()[0], 32.0f);
}

TEST(BackwardTest, NoGradGuardSkipsTape) {
  auto x = Param(Tensor({1}, {2}));
  {
    NoGradGuard guard;
    auto y = Mul(x, x);
    EXPECT_TRUE(y->is_leaf());
  }
  auto y = Mul(x, x);
  EXPECT_FALSE(y->is_leaf());
}

TEST(BackwardTest, ConstantsGetNoGradient) {
  auto x = Param(Tensor({2}, {1, 2}));
  auto c = Constant(Tensor({2}, {3, 4}));
  Backward(SumAll(Mul(x, c)));
  EXPECT_TRUE(rtgcn::AllClose(x->grad, c->value));
  EXPECT_FALSE(c->grad.defined());
}

// ---------------------------------------------------------------------------
// Gradient checks for each op
// ---------------------------------------------------------------------------

class GradCheckTest : public ::testing::Test {
 protected:
  Rng rng_{99};

  VarPtr RandParam(Shape shape, float lo = -1.0f, float hi = 1.0f) {
    return Param(RandomUniform(std::move(shape), lo, hi, &rng_));
  }
};

TEST_F(GradCheckTest, AddSubWithBroadcast) {
  auto a = RandParam({3, 4});
  auto b = RandParam({4});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Add(in[0], in[1])));
      },
      {a, b}));
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Sub(in[0], in[1])));
      },
      {a, b}));
}

TEST_F(GradCheckTest, MulDiv) {
  auto a = RandParam({2, 3});
  auto b = RandParam({2, 3}, 0.5f, 2.0f);  // away from zero for Div
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) { return SumAll(Mul(in[0], in[1])); },
      {a, b}));
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) { return SumAll(Div(in[0], in[1])); },
      {a, b}));
}

TEST_F(GradCheckTest, MatMul) {
  auto a = RandParam({3, 4});
  auto b = RandParam({4, 2});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(MatMul(in[0], in[1])));
      },
      {a, b}));
}

TEST_F(GradCheckTest, BatchMatMulPerBatch) {
  auto a = RandParam({2, 3, 4});
  auto b = RandParam({2, 4, 2});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(BatchMatMul(in[0], in[1])));
      },
      {a, b}));
}

TEST_F(GradCheckTest, BatchMatMulSharedRhs) {
  auto a = RandParam({3, 2, 4});
  auto b = RandParam({4, 2});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(BatchMatMul(in[0], in[1])));
      },
      {a, b}));
}

TEST_F(GradCheckTest, UnaryOps) {
  auto x = RandParam({2, 3}, 0.2f, 1.5f);  // positive domain for log/sqrt
  for (auto fn : {+[](const VarPtr& v) { return Sigmoid(v); },
                  +[](const VarPtr& v) { return Tanh(v); },
                  +[](const VarPtr& v) { return Exp(v); },
                  +[](const VarPtr& v) { return Log(v); },
                  +[](const VarPtr& v) { return Sqrt(v); },
                  +[](const VarPtr& v) { return Square(v); },
                  +[](const VarPtr& v) { return Neg(v); }}) {
    EXPECT_TRUE(GradCheck(
        [fn](const std::vector<VarPtr>& in) { return SumAll(fn(in[0])); },
        {x}));
  }
}

TEST_F(GradCheckTest, ReluAwayFromKink) {
  auto x = Param(Tensor({4}, {-1.0f, -0.3f, 0.4f, 1.2f}));
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Relu(in[0])));
      },
      {x}));
}

TEST(RectifierBackwardTest, OnePassMatchesMaskThenMulBitwise) {
  // Relu/LeakyRelu backward is g · (x > 0 ? 1 : slope) in one pass; it must
  // give the bits of the mask-then-Mul composition it replaced, including
  // signed zeros, NaN and ±Inf in both x and g. 20000 elements cover the
  // vector body, the scalar tail and several parallel chunks.
  constexpr int64_t kN = 20000;
  Rng rng(41);
  Tensor x = RandomGaussian({kN}, 0.0f, 1.0f, &rng);
  Tensor g = RandomGaussian({kN}, 0.0f, 1.0f, &rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, inf, -inf, nan, 1e-40f, -1e-40f};
  for (int64_t i = 0; i < kN; i += 97) {
    x.data()[i] = specials[(i / 97) % 7];
    g.data()[(i + 31) % kN] = specials[(i / 97 + 3) % 7];
  }
  for (float slope : {0.0f, 0.2f}) {
    auto in = Param(x.Clone());
    VarPtr out = slope == 0.0f ? Relu(in) : LeakyRelu(in, slope);
    Backward(SumAll(Mul(out, Constant(g))));
    const Tensor mask = rtgcn::Map(
        x, [slope](float v) { return v > 0 ? 1.0f : slope; });
    const Tensor expected = rtgcn::Mul(g, mask);
    ASSERT_EQ(in->grad.numel(), kN);
    EXPECT_EQ(std::memcmp(in->grad.data(), expected.data(),
                          sizeof(float) * kN),
              0)
        << "slope " << slope;
  }
}

TEST_F(GradCheckTest, SoftmaxAndReductions) {
  auto x = RandParam({3, 4});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Softmax(in[0], 1)));
      },
      {x}));
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Mean(in[0], 0)));
      },
      {x}));
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return MeanAll(Square(Sum(in[0], 1, true)));
      },
      {x}));
}

TEST_F(GradCheckTest, SliceConcatReshape) {
  auto x = RandParam({4, 3});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        auto a = SliceOp(in[0], 0, 0, 2);
        auto b = SliceOp(in[0], 0, 2, 4);
        auto cat = ConcatOp({b, a}, 0);  // swapped halves
        return SumAll(Square(Reshape(cat, {2, 6})));
      },
      {x}));
}

TEST_F(GradCheckTest, PermuteTransposeDownsample) {
  auto x = RandParam({4, 2, 3});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Permute(in[0], {2, 0, 1})));
      },
      {x}));
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Downsample(in[0], 0, 2, 1)));
      },
      {x}));
  auto m = RandParam({3, 5});
  EXPECT_TRUE(GradCheck(
      [](const std::vector<VarPtr>& in) {
        return SumAll(Square(Transpose(in[0])));
      },
      {m}));
}

TEST(DownsampleTest, ForwardValues) {
  auto x = Constant(Tensor({5, 1}, {0, 1, 2, 3, 4}));
  auto y = Downsample(x, 0, 2, 0);
  EXPECT_TRUE(rtgcn::AllClose(y->value, Tensor({3, 1}, {0, 2, 4})));
  auto z = Downsample(x, 0, 2, 1);
  EXPECT_TRUE(rtgcn::AllClose(z->value, Tensor({2, 1}, {1, 3})));
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(1);
  auto x = Constant(Tensor::Ones({10, 10}));
  auto y = Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(rtgcn::AllClose(y->value, x->value));
}

TEST(DropoutTest, TrainingScalesAndZeroes) {
  Rng rng(2);
  auto x = Constant(Tensor::Ones({100, 100}));
  auto y = Dropout(x, 0.5f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y->value.numel(); ++i) {
    const float v = y->value.data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.05);
}

TEST(DropoutTest, SpatialDropsWholeChannels) {
  Rng rng(3);
  auto x = Constant(Tensor::Ones({8, 4, 16}));
  auto y = Dropout(x, 0.5f, true, &rng, /*spatial_axis=*/2);
  // Each channel c is either all-zero or all-scaled across (T, N).
  for (int64_t c = 0; c < 16; ++c) {
    const float first = y->value.at({0, 0, c});
    for (int64_t t = 0; t < 8; ++t) {
      for (int64_t n = 0; n < 4; ++n) {
        EXPECT_FLOAT_EQ(y->value.at({t, n, c}), first);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  auto x = Param(Tensor({2}, {5, -3}));
  Sgd opt({x}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Backward(SumAll(Square(x)));
    opt.Step();
  }
  EXPECT_NEAR(rtgcn::Norm(x->value), 0.0f, 1e-3);
}

TEST(OptimizerTest, AdamConvergesOnQuadraticWithOffset) {
  // minimize ||x - target||^2
  auto x = Param(Tensor({3}, {0, 0, 0}));
  Tensor target({3}, {1, -2, 0.5});
  Adam opt({x}, 0.05f);
  for (int i = 0; i < 400; ++i) {
    opt.ZeroGrad();
    Backward(SumAll(Square(Sub(x, Constant(target)))));
    opt.Step();
  }
  EXPECT_TRUE(rtgcn::AllClose(x->value, target, 1e-2f, 1e-2f));
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  auto x = Param(Tensor({1}, {1.0f}));
  Adam opt({x}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/1.0f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    // Loss gradient is zero; only decay acts.
    x->AccumulateGrad(Tensor::Zeros({1}));
    opt.Step();
  }
  EXPECT_LT(std::fabs(x->value.data()[0]), 1.0f);
}

TEST(OptimizerTest, ClipGradNormBoundsGlobalNorm) {
  auto a = Param(Tensor({2}, {30, 40}));
  auto b = Param(Tensor({1}, {0}));
  Sgd opt({a, b}, 1.0f);
  a->AccumulateGrad(Tensor({2}, {30, 40}));  // norm 50
  b->AccumulateGrad(Tensor({1}, {0}));
  opt.ClipGradNorm(5.0f);
  EXPECT_NEAR(rtgcn::Norm(a->grad), 5.0f, 1e-4);
}

TEST(OptimizerTest, ZeroGradClears) {
  auto x = Param(Tensor({2}, {1, 1}));
  Adam opt({x});
  x->AccumulateGrad(Tensor::Ones({2}));
  opt.ZeroGrad();
  EXPECT_FALSE(x->grad.defined());
}

// Regression test: GradMode must be thread-local. A serving worker holding
// NoGradGuard for a forward-only pass must not disable taping on a training
// thread running concurrently (and vice versa) — with a process-global flag
// this test races and the main thread's tape silently disappears.
TEST(GradModeTest, NoGradGuardOnOneThreadDoesNotAffectAnother) {
  std::promise<void> guard_held;
  std::promise<void> main_done;
  std::atomic<bool> other_saw_disabled{false};
  std::atomic<bool> other_built_tape{true};

  std::thread server_worker([&] {
    NoGradGuard no_grad;
    other_saw_disabled.store(!GradMode::enabled());
    // An op on this thread must not build a tape...
    auto a = Param(Tensor::Ones({2}));
    auto b = Mul(a, a);
    other_built_tape.store(b->backward_fn != nullptr || !b->parents.empty());
    guard_held.set_value();
    // ... and the guard stays in force while the main thread tapes.
    main_done.get_future().wait();
  });

  guard_held.get_future().wait();
  // The other thread's NoGradGuard is active right now; taping here must
  // still work.
  EXPECT_TRUE(GradMode::enabled());
  auto x = Param(Tensor::Ones({2}));
  auto y = Mul(x, x);
  EXPECT_TRUE(y->backward_fn != nullptr);
  EXPECT_FALSE(y->parents.empty());
  Backward(y);
  EXPECT_TRUE(x->grad.defined());
  main_done.set_value();
  server_worker.join();

  EXPECT_TRUE(other_saw_disabled.load());
  EXPECT_FALSE(other_built_tape.load());
  // Guard released with the thread; this thread was never affected.
  EXPECT_TRUE(GradMode::enabled());
}

}  // namespace
}  // namespace rtgcn::ag
