#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "dense_graph_oracle.h"
#include "graph/gat.h"
#include "graph/hypergraph.h"
#include "graph/relation_tensor.h"
#include "obs/registry.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rtgcn::graph {
namespace {

RelationTensor MakeTriangle() {
  // 4 stocks; triangle 0-1-2 with mixed types; 3 isolated.
  RelationTensor rel(4, 3);
  rel.AddRelation(0, 1, 0).Abort();
  rel.AddRelation(0, 1, 2).Abort();
  rel.AddRelation(1, 2, 1).Abort();
  rel.AddRelation(0, 2, 0).Abort();
  return rel;
}

TEST(RelationTensorTest, AddAndQuery) {
  RelationTensor rel = MakeTriangle();
  EXPECT_TRUE(rel.HasEdge(0, 1));
  EXPECT_TRUE(rel.HasEdge(1, 0));  // symmetric
  EXPECT_FALSE(rel.HasEdge(0, 3));
  EXPECT_FALSE(rel.HasEdge(2, 2));  // no self edges
  EXPECT_EQ(rel.Types(0, 1), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(rel.num_edges(), 3);
}

TEST(RelationTensorTest, DuplicateAddIsNoOp) {
  RelationTensor rel(3, 2);
  rel.AddRelation(0, 1, 0).Abort();
  rel.AddRelation(1, 0, 0).Abort();
  EXPECT_EQ(rel.Types(0, 1).size(), 1u);
}

TEST(RelationTensorTest, InvalidArgumentsRejected) {
  RelationTensor rel(3, 2);
  EXPECT_FALSE(rel.AddRelation(0, 0, 0).ok());   // self edge
  EXPECT_FALSE(rel.AddRelation(0, 5, 0).ok());   // bad index
  EXPECT_FALSE(rel.AddRelation(0, 1, 7).ok());   // bad type
}

TEST(RelationTensorTest, RelationRatio) {
  RelationTensor rel = MakeTriangle();
  EXPECT_DOUBLE_EQ(rel.RelationRatio(), 3.0 / 6.0);
}

TEST(RelationTensorTest, DenseMaskSymmetricZeroDiagonal) {
  Tensor mask = MakeTriangle().DenseMask();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(mask.at({i, i}), 0.0f);
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(mask.at({i, j}), mask.at({j, i}));
    }
  }
  EXPECT_EQ(mask.at({0, 1}), 1.0f);
  EXPECT_EQ(mask.at({0, 3}), 0.0f);
}

TEST(RelationTensorTest, FilterTypesDropsEmptyEdges) {
  RelationTensor rel = MakeTriangle();
  RelationTensor only2 = rel.FilterTypes(2, 3);
  EXPECT_TRUE(only2.HasEdge(0, 1));
  EXPECT_FALSE(only2.HasEdge(1, 2));
  EXPECT_FALSE(only2.HasEdge(0, 2));
  EXPECT_EQ(only2.num_edges(), 1);
}

// Regression: the filtered view used to keep the full original type count
// and the original (un-shifted) type indices, so Table VI ablation models
// sized their per-type weights to types that could never occur.
TEST(RelationTensorTest, FilterTypesCompactsTypeIndices) {
  RelationTensor rel = MakeTriangle();
  RelationTensor high = rel.FilterTypes(1, 3);  // keeps types {1, 2}
  EXPECT_EQ(high.num_relation_types(), 2);
  EXPECT_EQ(high.Types(0, 1), (std::vector<int32_t>{1}));  // was type 2
  EXPECT_EQ(high.Types(1, 2), (std::vector<int32_t>{0}));  // was type 1
  EXPECT_FALSE(high.HasEdge(0, 2));  // only had type 0

  RelationTensor low = rel.FilterTypes(0, 2);
  EXPECT_EQ(low.num_relation_types(), 2);
  EXPECT_EQ(low.Types(0, 1), (std::vector<int32_t>{0}));  // identity remap
}

TEST(RelationTensorTest, InducedSubgraphRemapsSlotsAndKeepsTypes) {
  RelationTensor rel(6, 3);
  ASSERT_TRUE(rel.AddRelation(0, 2, 1).ok());
  ASSERT_TRUE(rel.AddRelation(0, 2, 2).ok());
  ASSERT_TRUE(rel.AddRelation(2, 5, 0).ok());
  ASSERT_TRUE(rel.AddRelation(1, 4, 1).ok());  // endpoint 4 excluded

  const std::vector<int64_t> slots = {2, 0, 5};
  RelationTensor sub = rel.InducedSubgraph(slots);
  EXPECT_EQ(sub.num_stocks(), 3);
  EXPECT_EQ(sub.num_relation_types(), 3);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_TRUE(sub.HasRelation(0, 1, 1));  // (2,0) type 1
  EXPECT_TRUE(sub.HasRelation(0, 1, 2));  // (2,0) type 2
  EXPECT_TRUE(sub.HasRelation(0, 2, 0));  // (2,5) type 0
  EXPECT_FALSE(sub.HasEdge(1, 2));
}

TEST(RelationTensorTest, HasRelationChecksSpecificType) {
  RelationTensor rel = MakeTriangle();
  EXPECT_TRUE(rel.HasRelation(0, 1, 0));
  EXPECT_TRUE(rel.HasRelation(1, 0, 2));  // symmetric
  EXPECT_FALSE(rel.HasRelation(0, 1, 1));
  EXPECT_FALSE(rel.HasRelation(0, 3, 0));
  EXPECT_FALSE(rel.HasRelation(1, 1, 0));
}

TEST(RelationTensorTest, EdgeListDeterministicOrder) {
  auto edges = MakeTriangle().EdgeList();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_TRUE(edges[0].i == 0 && edges[0].j == 1);
  EXPECT_TRUE(edges[1].i == 0 && edges[1].j == 2);
  EXPECT_TRUE(edges[2].i == 1 && edges[2].j == 2);
}

TEST(RelationTensorTest, EdgeListMemoizedUntilMutation) {
  RelationTensor rel = MakeTriangle();
  auto* reuse =
      obs::Registry::Global().GetCounter("graph.sparse.rebuild_reuse");

  const uint64_t before = reuse->Value();
  const auto* first = &rel.EdgeList();  // enumerates
  const auto* again = &rel.EdgeList();  // cache hit
  EXPECT_EQ(first, again);
  EXPECT_EQ(reuse->Value(), before + 1);

  // A structural mutation invalidates the snapshot...
  rel.AddRelation(0, 1, 1).Abort();
  const auto& after_add = rel.EdgeList();
  EXPECT_EQ(reuse->Value(), before + 1);
  EXPECT_EQ(after_add[0].types, (std::vector<int32_t>{0, 1, 2}));

  // ...but a duplicate add is a no-op and keeps the cache.
  const auto* cached = &rel.EdgeList();
  rel.AddRelation(0, 1, 1).Abort();
  EXPECT_EQ(&rel.EdgeList(), cached);
}

TEST(RelationTensorTest, RemoveRelationDropsTypeThenEdge) {
  RelationTensor rel = MakeTriangle();
  rel.AddRelation(0, 1, 1).Abort();
  ASSERT_EQ(rel.num_edges(), 3);

  rel.RemoveRelation(1, 0, 2).Abort();  // symmetric indexing
  EXPECT_FALSE(rel.HasRelation(0, 1, 2));
  EXPECT_TRUE(rel.HasEdge(0, 1));  // types {0, 1} survive

  rel.RemoveRelation(0, 1, 0).Abort();
  rel.RemoveRelation(0, 1, 1).Abort();
  EXPECT_FALSE(rel.HasEdge(0, 1));  // last type removed → edge gone
  EXPECT_EQ(rel.num_edges(), 2);

  // Removing an absent relation is a no-op, out-of-range is an error.
  EXPECT_TRUE(rel.RemoveRelation(0, 1, 0).ok());
  EXPECT_FALSE(rel.RemoveRelation(0, 99, 0).ok());
  EXPECT_FALSE(rel.RemoveRelation(0, 0, 0).ok());

  // EdgeList reflects the removals (cache was invalidated).
  const auto& edges = rel.EdgeList();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].i == 0 && edges[0].j == 2);
  EXPECT_TRUE(edges[1].i == 1 && edges[1].j == 2);
}

// ---------------------------------------------------------------------------
// Normalization
// ---------------------------------------------------------------------------

TEST(AdjacencyTest, NormalizedRowsOfRegularGraphSumToOne) {
  // Complete graph K3: Ã row sums = 3, D̃ = 3I, Â = (A+I)/3.
  Tensor a = Tensor::Ones({3, 3});
  for (int64_t i = 0; i < 3; ++i) a.at({i, i}) = 0.0f;
  Tensor norm = NormalizedAdjacency(a);
  for (int64_t i = 0; i < 3; ++i) {
    float row = 0;
    for (int64_t j = 0; j < 3; ++j) row += norm.at({i, j});
    EXPECT_NEAR(row, 1.0f, 1e-5);
  }
}

TEST(AdjacencyTest, IsolatedNodeBecomesIdentityRow) {
  Tensor a = Tensor::Zeros({2, 2});
  Tensor norm = NormalizedAdjacency(a);
  EXPECT_TRUE(AllClose(norm, Tensor::Eye(2)));
}

TEST(AdjacencyTest, SymmetricOutput) {
  Rng rng(3);
  Tensor a = Tensor::Zeros({5, 5});
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = i + 1; j < 5; ++j) {
      if (rng.Bernoulli(0.5)) {
        a.at({i, j}) = 1.0f;
        a.at({j, i}) = 1.0f;
      }
    }
  }
  Tensor norm = NormalizedAdjacency(a);
  EXPECT_TRUE(AllClose(norm, Transpose(norm)));
}

// ---------------------------------------------------------------------------
// RelationEdgeWeights (Eq. 4 custom op)
// ---------------------------------------------------------------------------

TEST(RelationEdgeWeightsTest, ForwardValues) {
  RelationTensor rel = MakeTriangle();
  auto w = ag::MakeVariable(Tensor({3}, {0.5f, 1.0f, 2.0f}), true);
  auto b = ag::MakeVariable(Tensor({1}, {0.1f}), true);
  auto s = RelationEdgeWeights(rel, w, b);
  // Edge (0,1) has types {0, 2}: 0.5 + 2.0 + 0.1 = 2.6.
  EXPECT_NEAR(s->value.at({0, 1}), 2.6f, 1e-6);
  EXPECT_NEAR(s->value.at({1, 0}), 2.6f, 1e-6);
  // Edge (1,2) type {1}: 1.0 + 0.1.
  EXPECT_NEAR(s->value.at({1, 2}), 1.1f, 1e-6);
  // Diagonal: unit self weight; non-edges zero.
  EXPECT_NEAR(s->value.at({3, 3}), 1.0f, 1e-6);
  EXPECT_NEAR(s->value.at({0, 3}), 0.0f, 1e-6);
}

TEST(RelationEdgeWeightsTest, GradCheck) {
  RelationTensor rel = MakeTriangle();
  Rng rng(4);
  auto w = ag::MakeVariable(RandomGaussian({3}, 1.0f, 0.2f, &rng), true);
  auto b = ag::MakeVariable(Tensor({1}, {0.0f}), true);
  Tensor x = RandomGaussian({4, 2}, 0, 1, &rng);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>& in) {
        auto s = RelationEdgeWeights(rel, in[0], in[1]);
        return ag::SumAll(ag::Square(ag::MatMul(s, ag::Constant(x))));
      },
      {w, b}));
}

// ---------------------------------------------------------------------------
// GAT
// ---------------------------------------------------------------------------

TEST(MaskedSoftmaxTest, MaskedEntriesAreZeroRowsNormalized) {
  Tensor mask({2, 3}, {1, 1, 0, 0, 0, 0});
  auto scores = ag::Constant(Tensor({2, 3}, {1, 2, 50, 1, 2, 3}));
  auto soft = MaskedRowSoftmax(scores, mask);
  EXPECT_NEAR(soft->value.at({0, 2}), 0.0f, 1e-6);
  EXPECT_NEAR(soft->value.at({0, 0}) + soft->value.at({0, 1}), 1.0f, 1e-5);
  // Fully masked row: all zeros.
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(soft->value.at({1, j}), 0.0f, 1e-6);
  }
}

TEST(GatTest, AttentionRowsSumToOneOnNeighborhood) {
  RelationTensor rel = MakeTriangle();
  Rng rng(7);
  GatLayer gat(rel, 3, 4, &rng);
  const Tensor att = gat.Attention(RandomGaussian({4, 3}, 0, 1, &rng));
  for (int64_t i = 0; i < 4; ++i) {
    float row = 0;
    for (int64_t j = 0; j < 4; ++j) row += att.at({i, j});
    EXPECT_NEAR(row, 1.0f, 1e-4);
  }
  // Non-edges (0,3) carry no attention (3 is isolated except self loop).
  EXPECT_NEAR(att.at({0, 3}), 0.0f, 1e-6);
  EXPECT_NEAR(att.at({3, 3}), 1.0f, 1e-4);
}

TEST(GatTest, GradientsReachAllParameters) {
  RelationTensor rel = MakeTriangle();
  Rng rng(8);
  GatLayer gat(rel, 2, 3, &rng);
  auto x = ag::Constant(RandomGaussian({4, 2}, 0, 1, &rng));
  ag::Backward(ag::SumAll(ag::Square(gat.Forward(x))));
  for (const auto& p : gat.Parameters()) {
    EXPECT_TRUE(p->grad.defined());
  }
}

// ---------------------------------------------------------------------------
// Hypergraph
// ---------------------------------------------------------------------------

TEST(HypergraphTest, IncidenceShape) {
  Hypergraph hg(5);
  hg.AddHyperedge({0, 1, 2});
  hg.AddHyperedge({2, 3});
  hg.AddHyperedge({4});  // ignored: fewer than 2 members
  EXPECT_EQ(hg.num_hyperedges(), 2);
  Tensor h = hg.Incidence();
  EXPECT_EQ(h.shape(), (Shape{5, 2}));
  EXPECT_EQ(h.at({2, 0}), 1.0f);
  EXPECT_EQ(h.at({2, 1}), 1.0f);
  EXPECT_EQ(h.at({4, 0}), 0.0f);
}

TEST(HypergraphTest, PropagationRowsSumToOneForMembers) {
  Hypergraph hg(4);
  hg.AddHyperedge({0, 1, 2});
  Tensor p = hg.PropagationMatrix();
  // Members of a single shared hyperedge: row sums 1 (degrees all 1).
  for (int64_t i = 0; i < 3; ++i) {
    float row = 0;
    for (int64_t j = 0; j < 4; ++j) row += p.at({i, j});
    EXPECT_NEAR(row, 1.0f, 1e-5);
  }
  // Isolated node passes features through.
  EXPECT_NEAR(p.at({3, 3}), 1.0f, 1e-6);
}

TEST(HypergraphTest, PropagationSymmetric) {
  Hypergraph hg(6);
  hg.AddHyperedge({0, 1, 2, 3});
  hg.AddHyperedge({2, 3, 4});
  Tensor p = hg.PropagationMatrix();
  EXPECT_TRUE(AllClose(p, Transpose(p), 1e-5f, 1e-6f));
}

}  // namespace
}  // namespace rtgcn::graph
