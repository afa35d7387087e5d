#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kernel_checker.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

TEST(TensorTest, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 0);
}

TEST(TensorTest, ZerosOnesFull) {
  Tensor z = Tensor::Zeros({2, 3});
  Tensor o = Tensor::Ones({2, 3});
  Tensor f = Tensor::Full({2, 3}, 2.5f);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(z.data()[i], 0.0f);
    EXPECT_EQ(o.data()[i], 1.0f);
    EXPECT_EQ(f.data()[i], 2.5f);
  }
  EXPECT_EQ(z.ndim(), 2);
  EXPECT_EQ(z.numel(), 6);
}

TEST(TensorTest, ScalarItem) {
  Tensor s = Tensor::Scalar(3.0f);
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_FLOAT_EQ(s.item(), 3.0f);
}

TEST(TensorTest, EyeAndArange) {
  Tensor e = Tensor::Eye(3);
  EXPECT_FLOAT_EQ(e.at({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(e.at({0, 1}), 0.0f);
  EXPECT_FLOAT_EQ(e.at({2, 2}), 1.0f);
  Tensor a = Tensor::Arange(4);
  EXPECT_FLOAT_EQ(a.at({3}), 3.0f);
}

TEST(TensorTest, AtIndexing) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_FLOAT_EQ(t.at({0, 2}), 3.0f);
  EXPECT_FLOAT_EQ(t.at({1, 0}), 4.0f);
  t.at({1, 2}) = 9.0f;
  EXPECT_FLOAT_EQ(t.at({1, 2}), 9.0f);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor t = Tensor::Ones({2, 2});
  Tensor c = t.Clone();
  c.data()[0] = 5.0f;
  EXPECT_FLOAT_EQ(t.data()[0], 1.0f);
}

TEST(TensorTest, CopyIsShallow) {
  Tensor t = Tensor::Ones({2, 2});
  Tensor c = t;  // NOLINT
  c.data()[0] = 5.0f;
  EXPECT_FLOAT_EQ(t.data()[0], 5.0f);
}

TEST(TensorTest, ReshapeSharesAndInfers) {
  Tensor t({2, 6}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_FLOAT_EQ(r.at({2, 3}), 11.0f);
  r.data()[0] = 42.0f;
  EXPECT_FLOAT_EQ(t.data()[0], 42.0f);  // shared storage
}

TEST(TensorTest, ShapeHelpers) {
  EXPECT_EQ(ShapeNumel({2, 3, 4}), 24);
  EXPECT_EQ(ShapeNumel({}), 1);
  EXPECT_EQ(RowMajorStrides({2, 3, 4}), (std::vector<int64_t>{12, 4, 1}));
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

// ---------------------------------------------------------------------------
// Elementwise ops and broadcasting
// ---------------------------------------------------------------------------

TEST(OpsTest, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {11, 22, 33, 44})));
}

TEST(OpsTest, SubMulDiv) {
  Tensor a({3}, {6, 8, 10});
  Tensor b({3}, {2, 4, 5});
  EXPECT_TRUE(AllClose(Sub(a, b), Tensor({3}, {4, 4, 5})));
  EXPECT_TRUE(AllClose(Mul(a, b), Tensor({3}, {12, 32, 50})));
  EXPECT_TRUE(AllClose(Div(a, b), Tensor({3}, {3, 2, 2})));
}

TEST(OpsTest, BroadcastRowAndColumn) {
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor row({1, 3}, {10, 20, 30});
  Tensor col({2, 1}, {100, 200});
  EXPECT_TRUE(AllClose(Add(m, row), Tensor({2, 3}, {11, 22, 33, 14, 25, 36})));
  EXPECT_TRUE(
      AllClose(Add(m, col), Tensor({2, 3}, {101, 102, 103, 204, 205, 206})));
}

TEST(OpsTest, BroadcastTrailingVector) {
  // [2,3] + [3] aligns on the trailing axis.
  Tensor m({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor v({3}, {1, 1, 1});
  EXPECT_TRUE(AllClose(Add(m, v), Tensor({2, 3}, {2, 3, 4, 5, 6, 7})));
}

TEST(OpsTest, BroadcastTrailingRowOnEitherSide) {
  // [C], [1, C] and [1, 1, C] against [T, N, C], on the left and right of
  // the non-commutative ops: bit-equal to the op on the materialized row.
  Rng rng(3);
  const Tensor full = RandomUniform({3, 4, 5}, 0.5f, 1.5f, &rng);
  for (const Shape& row_shape : {Shape{5}, Shape{1, 1, 5}, Shape{1, 5}}) {
    const Tensor row = RandomUniform(row_shape, 0.5f, 1.5f, &rng);
    const Tensor wide = BroadcastTo(row, full.shape());
    const auto expect_same = [](const Tensor& got, const Tensor& want) {
      ASSERT_EQ(got.shape(), want.shape());
      for (int64_t i = 0; i < want.numel(); ++i) {
        EXPECT_EQ(got.data()[i], want.data()[i]) << "at " << i;
      }
    };
    expect_same(Sub(full, row), Sub(full, wide));
    expect_same(Sub(row, full), Sub(wide, full));
    expect_same(Div(full, row), Div(full, wide));
    expect_same(Div(row, full), Div(wide, full));
    expect_same(Mul(row, full), Mul(wide, full));
  }
}

TEST(OpsTest, BroadcastScalarFastPath) {
  Tensor m({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::Scalar(10.0f);
  EXPECT_TRUE(AllClose(Mul(m, s), Tensor({2, 2}, {10, 20, 30, 40})));
  EXPECT_TRUE(AllClose(Mul(s, m), Tensor({2, 2}, {10, 20, 30, 40})));
}

TEST(OpsTest, Broadcast3dWith2d) {
  // [2,2,2] * [2,2]: the matrix is applied per batch element.
  Tensor a({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor b({2, 2}, {1, 0, 0, 1});
  Tensor c = Mul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2, 2}, {1, 0, 0, 4, 5, 0, 0, 8})));
}

TEST(OpsTest, BroadcastShapeComputation) {
  EXPECT_EQ(BroadcastShape({2, 1, 3}, {4, 1}), (Shape{2, 4, 3}));
  EXPECT_TRUE(BroadcastableTo({1, 3}, {5, 3}));
  EXPECT_FALSE(BroadcastableTo({2, 3}, {5, 3}));
}

TEST(OpsTest, ReduceToShapeSumsBroadcastAxes) {
  Tensor g = Tensor::Ones({4, 3});
  Tensor r = ReduceToShape(g, {3});
  EXPECT_TRUE(AllClose(r, Tensor({3}, {4, 4, 4})));
  Tensor r2 = ReduceToShape(g, {4, 1});
  EXPECT_TRUE(AllClose(r2, Tensor({4, 1}, {3, 3, 3, 3})));
}

TEST(OpsTest, UnaryFunctions) {
  Tensor a({4}, {-2, -0.5, 0.5, 2});
  EXPECT_TRUE(AllClose(Relu(a), Tensor({4}, {0, 0, 0.5, 2})));
  EXPECT_TRUE(AllClose(LeakyRelu(a, 0.1f), Tensor({4}, {-0.2f, -0.05f, 0.5f, 2})));
  EXPECT_TRUE(AllClose(Abs(a), Tensor({4}, {2, 0.5, 0.5, 2})));
  EXPECT_TRUE(AllClose(Neg(a), Tensor({4}, {2, 0.5, -0.5, -2})));
  EXPECT_TRUE(AllClose(Sign(a), Tensor({4}, {-1, -1, 1, 1})));
  EXPECT_TRUE(AllClose(Clamp(a, -1, 1), Tensor({4}, {-1, -0.5, 0.5, 1})));
}

TEST(OpsTest, ExpLogSqrtSquare) {
  Tensor a({2}, {1, 4});
  EXPECT_TRUE(AllClose(Sqrt(a), Tensor({2}, {1, 2})));
  EXPECT_TRUE(AllClose(Square(a), Tensor({2}, {1, 16})));
  EXPECT_TRUE(AllClose(Log(Exp(a)), a, 1e-5f, 1e-5f));
}

TEST(OpsTest, SigmoidTanhRange) {
  Tensor a({3}, {-10, 0, 10});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.data()[0], 0.0f, 1e-4);
  EXPECT_NEAR(s.data()[1], 0.5f, 1e-6);
  EXPECT_NEAR(s.data()[2], 1.0f, 1e-4);
  Tensor t = Tanh(a);
  EXPECT_NEAR(t.data()[0], -1.0f, 1e-4);
  EXPECT_NEAR(t.data()[1], 0.0f, 1e-6);
}

// ---------------------------------------------------------------------------
// Matmul / transpose / permute
// ---------------------------------------------------------------------------

TEST(OpsTest, MatMulBasic) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(OpsTest, MatMulIdentity) {
  Rng rng(1);
  Tensor a = RandomGaussian({4, 4}, 0, 1, &rng);
  EXPECT_TRUE(AllClose(MatMul(a, Tensor::Eye(4)), a));
  EXPECT_TRUE(AllClose(MatMul(Tensor::Eye(4), a), a));
}

TEST(OpsTest, BatchMatMulPerBatchAndShared) {
  Tensor a({2, 1, 2}, {1, 2, 3, 4});
  Tensor b({2, 2, 1}, {1, 1, 2, 2});
  Tensor c = BatchMatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 1, 1}, {3, 14})));
  Tensor shared({2, 1}, {1, 1});
  Tensor c2 = BatchMatMul(a, shared);
  EXPECT_TRUE(AllClose(c2, Tensor({2, 1, 1}, {3, 7})));
}

TEST(OpsTest, TransposeRoundTrip) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at({0, 1}), 4.0f);
  EXPECT_TRUE(AllClose(Transpose(t), a));
}

// Regression for the tiled transpose kernels: the output is written
// column-strided (out[j*m + i]), so a tiling bug shows up exactly on
// non-square shapes where row and column strides differ. Pin every backend
// to the naive loop, bit-for-bit.
TEST(OpsTest, TransposeNonSquareMatchesNaivePerBackend) {
  Rng rng(17);
  for (const auto& mn :
       {std::vector<int64_t>{3, 11}, std::vector<int64_t>{11, 3},
        std::vector<int64_t>{9, 24}, std::vector<int64_t>{24, 9},
        std::vector<int64_t>{1, 13}, std::vector<int64_t>{13, 1},
        std::vector<int64_t>{40, 23}}) {
    const int64_t m = mn[0], n = mn[1];
    Tensor a = RandomGaussian({m, n}, 0, 1, &rng);
    Tensor naive({n, m});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        naive.data()[j * m + i] = a.data()[i * n + j];
      }
    }
    for (const kernels::KernelSet* ks : kernels::AllKernels()) {
      if (!ks->supported()) continue;
      ScopedKernelBackend scope(ks == &kernels::Avx2()
                                    ? kernels::Backend::kAvx2
                                    : kernels::Backend::kReference);
      Tensor t = Transpose(a);
      ASSERT_EQ(t.shape(), (Shape{n, m})) << ks->name;
      EXPECT_EQ(std::memcmp(t.data(), naive.data(), sizeof(float) * t.numel()),
                0)
          << ks->name << " transpose [" << m << "," << n
          << "] differs from naive loop";
    }
  }
}

TEST(OpsTest, PermuteMatchesTransposeFor2d) {
  Rng rng(2);
  Tensor a = RandomGaussian({3, 5}, 0, 1, &rng);
  EXPECT_TRUE(AllClose(Permute(a, {1, 0}), Transpose(a)));
}

TEST(OpsTest, Permute3d) {
  Tensor a({2, 3, 4});
  for (int64_t i = 0; i < a.numel(); ++i) a.data()[i] = static_cast<float>(i);
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_FLOAT_EQ(p.at({1, 0, 2}), a.at({0, 2, 1}));
  EXPECT_FLOAT_EQ(p.at({3, 1, 0}), a.at({1, 0, 3}));
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

TEST(OpsTest, SumMeanAxis) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(Sum(a, 0), Tensor({3}, {5, 7, 9})));
  EXPECT_TRUE(AllClose(Sum(a, 1), Tensor({2}, {6, 15})));
  EXPECT_TRUE(AllClose(Sum(a, -1), Tensor({2}, {6, 15})));
  EXPECT_TRUE(AllClose(Mean(a, 1), Tensor({2}, {2, 5})));
  EXPECT_EQ(Sum(a, 0, true).shape(), (Shape{1, 3}));
}

TEST(OpsTest, SumAllMeanAllMaxMin) {
  Tensor a({2, 2}, {1, -2, 3, 4});
  EXPECT_FLOAT_EQ(SumAll(a).item(), 6.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).item(), 1.5f);
  EXPECT_FLOAT_EQ(MaxAll(a), 4.0f);
  EXPECT_FLOAT_EQ(MinAll(a), -2.0f);
}

TEST(OpsTest, MaxAxisAndArgmax) {
  Tensor a({2, 3}, {1, 5, 3, 9, 2, 6});
  EXPECT_TRUE(AllClose(Max(a, 1), Tensor({2}, {5, 9})));
  EXPECT_TRUE(AllClose(Argmax(a, 1), Tensor({2}, {1, 0})));
  EXPECT_TRUE(AllClose(Max(a, 0), Tensor({3}, {9, 5, 6})));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a({2, 3}, {1, 2, 3, 1000, 1000, 1000});  // second row: stability
  Tensor s = Softmax(a, 1);
  for (int64_t r = 0; r < 2; ++r) {
    float total = 0;
    for (int64_t c = 0; c < 3; ++c) total += s.at({r, c});
    EXPECT_NEAR(total, 1.0f, 1e-5);
  }
  EXPECT_NEAR(s.at({1, 0}), 1.0f / 3.0f, 1e-5);
  EXPECT_GT(s.at({0, 2}), s.at({0, 1}));
}

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

TEST(OpsTest, SliceMiddleAxis) {
  Tensor a({2, 4, 2});
  for (int64_t i = 0; i < a.numel(); ++i) a.data()[i] = static_cast<float>(i);
  Tensor s = Slice(a, 1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(s.at({0, 0, 0}), a.at({0, 1, 0}));
  EXPECT_FLOAT_EQ(s.at({1, 1, 1}), a.at({1, 2, 1}));
}

TEST(OpsTest, ConcatRoundTripsSlice) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor left = Slice(a, 1, 0, 1);
  Tensor right = Slice(a, 1, 1, 3);
  EXPECT_TRUE(AllClose(Concat({left, right}, 1), a));
}

TEST(OpsTest, StackAndSqueeze) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  Tensor s = Stack({a, b});
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at({1, 0}), 3.0f);
  Tensor u = Unsqueeze(a, 0);
  EXPECT_EQ(u.shape(), (Shape{1, 2}));
  EXPECT_EQ(Squeeze(u, 0).shape(), (Shape{2}));
}

TEST(OpsTest, NormAndDot) {
  Tensor a({2}, {3, 4});
  EXPECT_FLOAT_EQ(Norm(a), 5.0f);
  Tensor b({2}, {1, 2});
  EXPECT_FLOAT_EQ(Dot(a, b), 11.0f);
}

// ---------------------------------------------------------------------------
// Random init
// ---------------------------------------------------------------------------

TEST(InitTest, UniformRange) {
  Rng rng(3);
  Tensor t = RandomUniform({1000}, -2.0f, 3.0f, &rng);
  EXPECT_GE(MinAll(t), -2.0f);
  EXPECT_LT(MaxAll(t), 3.0f);
  EXPECT_NEAR(MeanAll(t).item(), 0.5f, 0.15f);
}

TEST(InitTest, GaussianMoments) {
  Rng rng(4);
  Tensor t = RandomGaussian({5000}, 1.0f, 2.0f, &rng);
  EXPECT_NEAR(MeanAll(t).item(), 1.0f, 0.15f);
  Tensor centered = AddScalar(t, -MeanAll(t).item());
  EXPECT_NEAR(std::sqrt(MeanAll(Square(centered)).item()), 2.0f, 0.2f);
}

TEST(InitTest, XavierBound) {
  Rng rng(5);
  Tensor t = XavierUniform({64, 64}, 64, 64, &rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  EXPECT_LE(MaxAll(t), bound);
  EXPECT_GE(MinAll(t), -bound);
}

TEST(InitTest, DeterministicGivenSeed) {
  Rng rng1(9), rng2(9);
  Tensor a = RandomGaussian({16}, 0, 1, &rng1);
  Tensor b = RandomGaussian({16}, 0, 1, &rng2);
  EXPECT_TRUE(AllClose(a, b, 0, 0));
}

}  // namespace
}  // namespace rtgcn
