// Edge cases and failure-injection tests: degenerate shapes, extreme
// values, and malformed inputs must fail loudly or behave sanely — never
// corrupt memory or return garbage silently.
#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd_oracle.h"
#include "dense_graph_oracle.h"
#include "graph/relation_tensor.h"
#include "market/dataset.h"
#include "rank/metrics.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

TEST(EdgeCaseTest, ZeroSizedDimensions) {
  Tensor empty = Tensor::Zeros({0, 4});
  EXPECT_EQ(empty.numel(), 0);
  Tensor summed = Sum(empty, 0);
  EXPECT_EQ(summed.shape(), (Shape{4}));
  EXPECT_TRUE(AllClose(summed, Tensor::Zeros({4})));
  // Elementwise on empty tensors is a no-op, not a crash.
  Tensor still_empty = Add(empty, empty);
  EXPECT_EQ(still_empty.numel(), 0);
}

TEST(EdgeCaseTest, SingleElementEverything) {
  Tensor one = Tensor::Scalar(2.0f);
  EXPECT_FLOAT_EQ(Mul(one, one).item(), 4.0f);
  EXPECT_FLOAT_EQ(SumAll(one).item(), 2.0f);
  Tensor m({1, 1}, {3.0f});
  EXPECT_FLOAT_EQ(MatMul(m, m).item(), 9.0f);
  EXPECT_FLOAT_EQ(Softmax(m, 1).item(), 1.0f);
}

TEST(EdgeCaseTest, SliceFullAndEmptyRange) {
  Tensor a({4, 2});
  a.Fill(1.0f);
  EXPECT_TRUE(AllClose(Slice(a, 0, 0, 4), a));
  Tensor empty = Slice(a, 0, 2, 2);
  EXPECT_EQ(empty.dim(0), 0);
}

TEST(EdgeCaseTest, SoftmaxWithExtremeValues) {
  Tensor a({1, 3}, {1e30f, -1e30f, 0.0f});
  Tensor s = Softmax(a, 1);
  EXPECT_FALSE(std::isnan(s.data()[0]));
  EXPECT_NEAR(s.data()[0], 1.0f, 1e-5);
  EXPECT_NEAR(s.data()[1], 0.0f, 1e-5);
}

TEST(EdgeCaseTest, RankingWithAllEqualScores) {
  Tensor scores = Tensor::Zeros({5});
  Tensor labels({5}, {0.01f, 0.02f, 0.03f, 0.04f, 0.05f});
  // Stable tie-break: picks index 0, which has true rank 5.
  EXPECT_DOUBLE_EQ(rank::ReciprocalRankTop1(scores, labels), 0.2);
  EXPECT_EQ(rank::TopK(scores, 3), (std::vector<int64_t>{0, 1, 2}));
}

TEST(EdgeCaseTest, RankingWithNegativeEverything) {
  Tensor scores({3}, {-1, -2, -3});
  Tensor labels({3}, {-0.1f, -0.2f, -0.3f});
  EXPECT_DOUBLE_EQ(rank::ReciprocalRankTop1(scores, labels), 1.0);
  EXPECT_NEAR(rank::TopKReturn(scores, labels, 2), -0.15, 1e-6);
}

TEST(EdgeCaseTest, EmptyRelationTensorNormalizesToIdentity) {
  graph::RelationTensor rel(4, 2);  // no edges at all
  Tensor norm = graph::NormalizedAdjacency(rel);
  EXPECT_TRUE(AllClose(norm, Tensor::Eye(4)));
  EXPECT_DOUBLE_EQ(rel.RelationRatio(), 0.0);
  EXPECT_TRUE(rel.EdgeList().empty());
}

TEST(EdgeCaseTest, SingleStockRelationTensor) {
  graph::RelationTensor rel(1, 1);
  EXPECT_EQ(rel.num_edges(), 0);
  EXPECT_FALSE(rel.AddRelation(0, 0, 0).ok());
  EXPECT_DOUBLE_EQ(rel.RelationRatio(), 0.0);  // no pairs: defined as 0
}

TEST(EdgeCaseTest, WindowDatasetMinimalSizes) {
  // Smallest panel that supports window 1 with 1 feature: 2 days.
  Tensor prices({2, 1}, {100.0f, 110.0f});
  market::WindowDataset ds(prices, 1, 1);
  EXPECT_EQ(ds.first_day(), 0);
  EXPECT_EQ(ds.last_day(), 0);
  Tensor x = ds.Features(0);
  EXPECT_EQ(x.shape(), (Shape{1, 1, 1}));
  EXPECT_FLOAT_EQ(x.data()[0], 1.0f);
  EXPECT_NEAR(ds.Labels(0).data()[0], 0.1f, 1e-6);
}

TEST(EdgeCaseTest, BroadcastScalarAgainstEverything) {
  Tensor s = Tensor::Scalar(2.0f);
  Tensor cube = Tensor::Ones({2, 3, 4});
  Tensor out = Mul(cube, s);
  EXPECT_EQ(out.shape(), cube.shape());
  EXPECT_FLOAT_EQ(out.data()[23], 2.0f);
}

TEST(EdgeCaseTest, GradThroughDegenerateShapes) {
  // [1, 1] matmul chain still backpropagates.
  auto a = ag::MakeVariable(Tensor({1, 1}, {3.0f}), true);
  auto y = ag::SumAll(ag::MatMul(a, a));
  ag::Backward(y);
  EXPECT_FLOAT_EQ(a->grad.item(), 6.0f);
}

TEST(EdgeCaseTest, DropoutFullKeepAndNearFullDrop) {
  Rng rng(1);
  auto x = ag::Constant(Tensor::Ones({10}));
  // p = 0: exact identity (same object).
  auto kept = ag::Dropout(x, 0.0f, true, &rng);
  EXPECT_TRUE(AllClose(kept->value, x->value, 0, 0));
  // p close to 1: output entries are 0 or the huge inverse-keep scale.
  auto dropped = ag::Dropout(x, 0.99f, true, &rng);
  for (int64_t i = 0; i < 10; ++i) {
    const float v = dropped->value.data()[i];
    EXPECT_TRUE(v == 0.0f || v > 99.0f);
  }
}

TEST(EdgeCaseTest, ClipGradNormWithZeroGradients) {
  auto p = ag::MakeVariable(Tensor::Ones({3}), true);
  ag::Sgd opt({p}, 0.1f);
  opt.ClipGradNorm(1.0f);  // no gradients defined: must not crash
  p->AccumulateGrad(Tensor::Zeros({3}));
  opt.ClipGradNorm(1.0f);  // zero norm: no rescale, no division by zero
  EXPECT_FLOAT_EQ(Norm(p->grad), 0.0f);
}

}  // namespace
}  // namespace rtgcn
