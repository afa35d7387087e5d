// Sparse CSR graph backend: construction invariants, dense-vs-sparse
// equivalence (forward + gradients) for all propagation strategies, edge
// cases, and --graph_backend / RTGCN_GRAPH_BACKEND dispatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "baselines/rsr.h"
#include "core/rtgcn.h"
#include "graph/adjacency.h"
#include "graph/gat.h"
#include "graph/sparse.h"
#include "graph_checker.h"
#include "obs/registry.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

// 4 stocks: triangle 0-1-2 with multi-hot types, stock 3 isolated.
graph::RelationTensor MakeTriangle() {
  graph::RelationTensor rel(4, 3);
  rel.AddRelation(0, 1, 0).Abort();
  rel.AddRelation(0, 1, 2).Abort();
  rel.AddRelation(1, 2, 1).Abort();
  rel.AddRelation(0, 2, 0).Abort();
  return rel;
}

graph::RelationTensor RandomRelations(int64_t n, int64_t k, int64_t edges,
                                      Rng* rng) {
  graph::RelationTensor rel(n, k);
  for (int64_t e = 0; e < edges; ++e) {
    const int64_t i = static_cast<int64_t>(rng->UniformInt(n));
    const int64_t j = static_cast<int64_t>(rng->UniformInt(n));
    if (i == j) continue;
    rel.AddRelation(i, j, static_cast<int64_t>(rng->UniformInt(k))).Abort();
  }
  return rel;
}

int64_t EntryIndex(const graph::CsrGraph& g, int64_t i, int64_t j) {
  for (int64_t e = g.row_ptr()[i]; e < g.row_ptr()[i + 1]; ++e) {
    if (g.col()[e] == j) return e;
  }
  return -1;
}

std::vector<int32_t> EntryTypes(const graph::CsrGraph& g, int64_t e) {
  return std::vector<int32_t>(g.types().begin() + g.type_ptr()[e],
                              g.types().begin() + g.type_ptr()[e + 1]);
}

// ---------------------------------------------------------------------------
// CSR construction
// ---------------------------------------------------------------------------

TEST(CsrGraphTest, NormalizedAdjacencyLayout) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  EXPECT_EQ(g->num_nodes(), 4);
  EXPECT_EQ(g->num_relation_types(), 3);
  EXPECT_EQ(g->num_undirected_edges(), 3);
  EXPECT_TRUE(g->has_self_loops());
  // Rows 0..2 hold {self, 2 neighbors}; the isolated row 3 only its self
  // loop: 3 + 3 + 3 + 1 directed entries.
  EXPECT_EQ(g->num_entries(), 10);
  EXPECT_EQ(g->row_ptr(), (std::vector<int64_t>{0, 3, 6, 9, 10}));
  EXPECT_EQ(g->col(), (std::vector<int32_t>{0, 1, 2, 0, 1, 2, 0, 1, 2, 3}));
  // deg~ (incl. self loop) is 3 for the triangle nodes, 1 for the isolated
  // node, so every triangle coefficient is 1/3 and the isolated self loop 1.
  for (int64_t e = 0; e < 9; ++e) {
    EXPECT_FLOAT_EQ(g->coeff()[e], 1.0f / 3.0f) << "entry " << e;
  }
  EXPECT_FLOAT_EQ(g->coeff()[9], 1.0f);
  EXPECT_GT(g->ApproxBytes(), 0u);
}

TEST(CsrGraphTest, ReverseEntryIsAnInvolution) {
  Rng rng(3);
  const graph::RelationTensor rel = RandomRelations(30, 4, 120, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  for (int64_t e = 0; e < g->num_entries(); ++e) {
    const int64_t r = g->reverse_entry()[e];
    EXPECT_EQ(g->reverse_entry()[r], e);
    EXPECT_EQ(g->col()[r], g->row_of()[e]);
    EXPECT_EQ(g->row_of()[r], g->col()[e]);
    if (g->IsSelf(e)) {
      EXPECT_EQ(r, e);  // self loops map to themselves
    }
  }
}

TEST(CsrGraphTest, TypeListsMatchRelationTensor) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 0, 1)),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 1, 0)),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 1, 2)), (std::vector<int32_t>{1}));
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 0, 2)), (std::vector<int32_t>{0}));
  // Self loops carry no relation types.
  EXPECT_TRUE(EntryTypes(*g, EntryIndex(*g, 3, 3)).empty());
  EXPECT_TRUE(EntryTypes(*g, EntryIndex(*g, 0, 0)).empty());
}

TEST(CsrGraphTest, DensifyCoeffMatchesDenseNormalizedAdjacency) {
  Rng rng(4);
  const graph::RelationTensor rel = RandomRelations(25, 3, 80, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  GraphChecker checker;
  checker.ExpectClose(graph::NormalizedAdjacency(rel), g->DensifyCoeff(),
                      "DensifyCoeff vs dense Â");
}

TEST(CsrGraphTest, RowNormalizedAveragesNeighbors) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::RowNormalized(rel);
  EXPECT_FALSE(g->has_self_loops());
  EXPECT_EQ(g->num_entries(), 6);  // triangle only; row 3 is empty
  EXPECT_EQ(g->row_ptr(), (std::vector<int64_t>{0, 2, 4, 6, 6}));
  for (int64_t e = 0; e < g->num_entries(); ++e) {
    EXPECT_FLOAT_EQ(g->coeff()[e], 0.5f);  // every triangle node has deg 2
  }
}

TEST(CsrGraphTest, UniformMaskHasUnitCoefficients) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/true);
  EXPECT_EQ(g->num_entries(), 10);
  for (int64_t e = 0; e < g->num_entries(); ++e) {
    EXPECT_FLOAT_EQ(g->coeff()[e], 1.0f);
  }
}

TEST(CsrGraphTest, EmptyAndSingleStockGraphs) {
  graph::RelationTensor empty(3, 2);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(empty);
  EXPECT_EQ(g->num_entries(), 3);  // self loops only
  for (int64_t e = 0; e < 3; ++e) EXPECT_FLOAT_EQ(g->coeff()[e], 1.0f);
  EXPECT_EQ(graph::CsrGraph::RowNormalized(empty)->num_entries(), 0);

  graph::RelationTensor one(1, 1);
  graph::CsrPtr g1 = graph::CsrGraph::NormalizedAdjacency(one);
  EXPECT_EQ(g1->num_entries(), 1);
  EXPECT_FLOAT_EQ(g1->coeff()[0], 1.0f);
}

TEST(CsrGraphTest, CsrFootprintIsOrderEdgesNotNSquared) {
  Rng rng(5);
  const int64_t n = 400;
  const graph::RelationTensor rel = RandomRelations(n, 4, 800, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  const size_t dense_mask_bytes = static_cast<size_t>(n) * n * sizeof(float);
  EXPECT_LT(g->ApproxBytes(), dense_mask_bytes / 4);
}

// ---------------------------------------------------------------------------
// Dense-vs-sparse op equivalence (forward + gradients)
// ---------------------------------------------------------------------------

TEST(SparseOpsTest, PropagateMatchesDense) {
  GraphChecker checker;
  Rng rng(11);
  const graph::RelationTensor rel = RandomRelations(40, 4, 160, &rng);
  const Tensor x0 = checker.Gaussian({40, 7});
  const Tensor cot = checker.Gaussian({40, 7});

  ag::VarPtr xd = ag::MakeVariable(x0.Clone(), /*requires_grad=*/true);
  ag::VarPtr yd =
      ag::MatMul(ag::Constant(graph::NormalizedAdjacency(rel)), xd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  ag::VarPtr xs = ag::MakeVariable(x0.Clone(), /*requires_grad=*/true);
  ag::VarPtr ys = graph::SparsePropagate(g, xs);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "SparsePropagate forward");
  checker.ExpectClose(xd->grad, xs->grad, "SparsePropagate dx");
}

TEST(SparseOpsTest, PropagateOnEmptyGraphIsIdentity) {
  graph::RelationTensor rel(6, 2);  // no edges: Â = I
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  Rng rng(12);
  const Tensor x0 = RandomGaussian({6, 3}, 0, 1, &rng);
  ag::VarPtr y = graph::SparsePropagate(g, ag::Constant(x0));
  EXPECT_EQ(std::memcmp(y->value.data(), x0.data(),
                        sizeof(float) * x0.numel()),
            0);
}

TEST(SparseOpsTest, EdgeWeightPropagateMatchesDense) {
  GraphChecker checker;
  Rng rng(13);
  const graph::RelationTensor rel = RandomRelations(35, 5, 150, &rng);
  const Tensor x0 = checker.Gaussian({35, 6});
  const Tensor cot = checker.Gaussian({35, 6});
  const Tensor w0 = checker.Gaussian({5}, 1.0f, 0.1f);
  const Tensor b0 = checker.Gaussian({1}, 0.0f, 0.1f);

  ag::VarPtr wd = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bd = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xd = ag::MakeVariable(x0.Clone(), true);
  ag::VarPtr s = graph::RelationEdgeWeights(rel, wd, bd);
  ag::VarPtr pd =
      ag::Mul(ag::Constant(graph::NormalizedAdjacency(rel)), s);
  ag::VarPtr yd = ag::MatMul(pd, xd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  ag::VarPtr ws = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bs = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xs = ag::MakeVariable(x0.Clone(), true);
  Tensor edge_values;
  ag::VarPtr ys =
      graph::SparseEdgeWeightPropagate(g, ws, bs, xs, &edge_values);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "EdgeWeight forward");
  checker.ExpectClose(wd->grad, ws->grad, "EdgeWeight dw");
  checker.ExpectClose(bd->grad, bs->grad, "EdgeWeight db");
  checker.ExpectClose(xd->grad, xs->grad, "EdgeWeight dx");
  // The saved per-entry values densify to the dense propagation matrix.
  ASSERT_EQ(edge_values.numel(), g->num_entries());
  checker.ExpectClose(pd->value, g->Densify(edge_values.data()),
                      "EdgeWeight saved P");
}

TEST(SparseOpsTest, RowNormalizedEdgeWeightMatchesDenseRsrAggregation) {
  GraphChecker checker;
  Rng rng(14);
  const graph::RelationTensor rel = RandomRelations(30, 4, 90, &rng);
  const int64_t n = rel.num_stocks();
  const Tensor e0 = checker.Gaussian({n, 8});
  const Tensor cot = checker.Gaussian({n, 8});
  const Tensor w0 = checker.Gaussian({4}, 1.0f, 0.1f);
  const Tensor b0 = checker.Gaussian({1}, 0.0f, 0.1f);

  // Dense reference: ē = D^{-1} (S ⊙ M) e exactly as rsr.cc's dense path.
  const Tensor mask = rel.DenseMask();
  Tensor degree_inv({n, 1});
  for (int64_t i = 0; i < n; ++i) {
    double deg = 0;
    for (int64_t j = 0; j < n; ++j) deg += mask.data()[i * n + j];
    degree_inv.data()[i] = deg > 0 ? static_cast<float>(1.0 / deg) : 0.0f;
  }
  ag::VarPtr wd = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bd = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr ed = ag::MakeVariable(e0.Clone(), true);
  ag::VarPtr s = graph::RelationEdgeWeights(rel, wd, bd);
  ag::VarPtr masked = ag::Mul(s, ag::Constant(mask));
  ag::VarPtr yd =
      ag::Mul(ag::MatMul(masked, ed), ag::Constant(degree_inv));
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::RowNormalized(rel);
  ag::VarPtr ws = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bs = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr es = ag::MakeVariable(e0.Clone(), true);
  ag::VarPtr ys = graph::SparseEdgeWeightPropagate(g, ws, bs, es);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "RSR aggregation forward");
  checker.ExpectClose(wd->grad, ws->grad, "RSR aggregation dw");
  checker.ExpectClose(bd->grad, bs->grad, "RSR aggregation db");
  checker.ExpectClose(ed->grad, es->grad, "RSR aggregation de");
}

TEST(SparseOpsTest, TimeSensitivePropagateMatchesDense) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  Rng rng(15);
  const graph::RelationTensor rel = RandomRelations(25, 4, 100, &rng);
  const int64_t n = rel.num_stocks();
  const int64_t t_len = 5, d = 6;
  const Tensor x0 = checker.Uniform({t_len, n, d}, 0.9f, 1.1f);
  const Tensor cot = checker.Gaussian({t_len, n, d});
  const Tensor w0 = checker.Gaussian({4}, 1.0f, 0.1f);
  const Tensor b0 = checker.Gaussian({1}, 0.0f, 0.1f);

  // Dense reference: P(t) = Â ⊙ (X(t) X(t)ᵀ / √d) ⊙ S (rtgcn.cc Eq. 5).
  ag::VarPtr wd = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bd = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xd = ag::MakeVariable(x0.Clone(), true);
  ag::VarPtr s = graph::RelationEdgeWeights(rel, wd, bd);
  ag::VarPtr base = ag::Mul(ag::Constant(graph::NormalizedAdjacency(rel)), s);
  ag::VarPtr corr = ag::MulScalar(
      ag::BatchMatMul(xd, ag::Permute(xd, {0, 2, 1})),
      1.0f / std::sqrt(static_cast<float>(d)));
  ag::VarPtr pd = ag::Mul(corr, base);
  ag::VarPtr yd = ag::BatchMatMul(pd, xd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  ag::VarPtr ws = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bs = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xs = ag::MakeVariable(x0.Clone(), true);
  graph::TimeSensitiveEdgeValues edge_values;
  ag::VarPtr ys =
      graph::SparseTimeSensitivePropagate(g, ws, bs, xs, &edge_values);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "TimeSensitive forward");
  checker.ExpectClose(wd->grad, ws->grad, "TimeSensitive dw");
  checker.ExpectClose(bd->grad, bs->grad, "TimeSensitive db");
  checker.ExpectClose(xd->grad, xs->grad, "TimeSensitive dx");
  // Saved per-(t, entry) values densify to each dense P(t).
  ASSERT_TRUE(edge_values.defined());
  ASSERT_EQ(edge_values.t_steps, t_len);
  ASSERT_GE(edge_values.t_stride, t_len);
  ASSERT_EQ(static_cast<int64_t>(edge_values.as->size()), g->num_entries());
  std::vector<float> pt_entries(static_cast<size_t>(g->num_entries()));
  for (int64_t t = 0; t < t_len; ++t) {
    Tensor pt({n, n});
    std::memcpy(pt.data(), pd->value.data() + t * n * n,
                sizeof(float) * n * n);
    for (int64_t e = 0; e < g->num_entries(); ++e) {
      pt_entries[static_cast<size_t>(e)] = edge_values.At(t, e);
    }
    checker.ExpectClose(pt, g->Densify(pt_entries.data()),
                        "TimeSensitive saved P(t=" + std::to_string(t) + ")");
  }
}

// The node-major, time-blocked op against the scalar [T, N, D] loops it
// replaced (graph_checker.h): y, dw, db, dx, every saved P(t) and the
// time-averaged diagnostic must match bit for bit — T on both sides of the
// 8-lane block, several D, constant x versus x requiring a gradient, a
// graph with isolated rows and an empty graph. N = 150 spans three 64-row
// chunks of the w/b reduction.
TEST(SparseOpsTest, TimeSensitivePropagateBitIdenticalToReferenceLoops) {
  Rng rng(18);
  const graph::RelationTensor random_rel = RandomRelations(150, 4, 600, &rng);
  const graph::RelationTensor no_edges(5, 2);
  struct GraphCase {
    const char* name;
    graph::CsrPtr g;
  };
  const std::vector<GraphCase> graphs = {
      {"random", graph::CsrGraph::NormalizedAdjacency(random_rel)},
      // No self loops: stock 3 of the triangle owns no entries at all.
      {"isolated rows",
       graph::CsrGraph::Build(MakeTriangle(), graph::CsrGraph::Norm::kSymmetric,
                              /*add_self_loops=*/false)},
      {"empty", graph::CsrGraph::Build(no_edges,
                                       graph::CsrGraph::Norm::kSymmetric,
                                       /*add_self_loops=*/false)},
  };
  enum class Grads { kWeightsOnly, kWeightsAndX, kXOnly };
  for (const GraphCase& gc : graphs) {
    const graph::CsrGraph& g = *gc.g;
    const int64_t n = g.num_nodes();
    const int64_t k = g.num_relation_types();
    for (int64_t t_len : {1, 5, 8, 15, 17, 20}) {
      for (int64_t d : {1, 4, 6}) {
        const Tensor x0 = RandomUniform({t_len, n, d}, -1.0f, 1.5f, &rng);
        const Tensor cot = RandomGaussian({t_len, n, d}, 0.0f, 1.0f, &rng);
        const Tensor w0 = RandomGaussian({k}, 1.0f, 0.1f, &rng);
        const Tensor b0 = RandomGaussian({1}, 0.0f, 0.1f, &rng);
        for (Grads grads :
             {Grads::kWeightsOnly, Grads::kWeightsAndX, Grads::kXOnly}) {
          const bool wb_grad = grads != Grads::kXOnly;
          const bool x_grad = grads != Grads::kWeightsOnly;
          const std::string ctx = std::string(gc.name) +
                                  " T=" + std::to_string(t_len) +
                                  " D=" + std::to_string(d) +
                                  (wb_grad ? " dw/db" : "") +
                                  (x_grad ? " dx" : "");
          const TimeSensitiveReference ref = ReferenceTimeSensitivePropagate(
              g, w0, b0, x0, cot, /*want_dx=*/x_grad);

          auto w = ag::MakeVariable(w0.Clone(), wb_grad);
          auto b = ag::MakeVariable(b0.Clone(), wb_grad);
          auto x = ag::MakeVariable(x0.Clone(), x_grad);
          graph::TimeSensitiveEdgeValues saved;
          ag::VarPtr y =
              graph::SparseTimeSensitivePropagate(gc.g, w, b, x, &saved);
          ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));

          ExpectBitEqual(ref.y, y->value, ctx + " y");
          if (wb_grad) {
            ExpectBitEqual(ref.dw, w->grad, ctx + " dw");
            ExpectBitEqual(ref.db, b->grad, ctx + " db");
          }
          if (x_grad) ExpectBitEqual(ref.dx, x->grad, ctx + " dx");

          ASSERT_TRUE(saved.defined()) << ctx;
          ASSERT_EQ(saved.t_steps, t_len) << ctx;
          const int64_t nnz = g.num_entries();
          std::vector<float> p(static_cast<size_t>(t_len * nnz));
          for (int64_t t = 0; t < t_len; ++t) {
            for (int64_t e = 0; e < nnz; ++e) p[t * nnz + e] = saved.At(t, e);
          }
          ExpectBitEqual(ref.p.data(), p.data(), t_len * nnz, ctx + " P(t)");
          const std::vector<float> avg = saved.TimeAverage();
          const std::vector<float> ref_avg = ReferenceTimeAverage(ref.p);
          ASSERT_EQ(avg.size(), ref_avg.size()) << ctx;
          ExpectBitEqual(ref_avg.data(), avg.data(), nnz, ctx + " avg P");
        }
      }
    }
  }
}

TEST(SparseOpsTest, GatAttentionMatchesDense) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  Rng rng(16);
  const graph::RelationTensor rel = RandomRelations(30, 3, 110, &rng);
  const int64_t n = rel.num_stocks(), f = 5;
  const Tensor src0 = checker.Gaussian({n, 1});
  const Tensor dst0 = checker.Gaussian({n, 1});
  const Tensor h0 = checker.Gaussian({n, f});
  const Tensor cot = checker.Gaussian({n, f});
  const float slope = 0.2f;

  // Dense reference: the gat.cc mask path with self loops.
  Tensor mask = rel.DenseMask();
  for (int64_t i = 0; i < n; ++i) mask.data()[i * n + i] = 1.0f;
  ag::VarPtr srcd = ag::MakeVariable(src0.Clone(), true);
  ag::VarPtr dstd = ag::MakeVariable(dst0.Clone(), true);
  ag::VarPtr hd = ag::MakeVariable(h0.Clone(), true);
  ag::VarPtr e = ag::LeakyRelu(ag::Add(srcd, ag::Transpose(dstd)), slope);
  ag::VarPtr alpha = graph::MaskedRowSoftmax(e, mask);
  ag::VarPtr yd = ag::MatMul(alpha, hd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/true);
  ag::VarPtr srcs = ag::MakeVariable(src0.Clone(), true);
  ag::VarPtr dsts = ag::MakeVariable(dst0.Clone(), true);
  ag::VarPtr hs = ag::MakeVariable(h0.Clone(), true);
  Tensor alpha_entries;
  ag::VarPtr ys =
      graph::SparseGatAttention(g, srcs, dsts, hs, slope, &alpha_entries);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "GAT forward");
  checker.ExpectClose(srcd->grad, srcs->grad, "GAT dsrc");
  checker.ExpectClose(dstd->grad, dsts->grad, "GAT ddst");
  checker.ExpectClose(hd->grad, hs->grad, "GAT dh");
  ASSERT_EQ(alpha_entries.numel(), g->num_entries());
  checker.ExpectClose(alpha->value, g->Densify(alpha_entries.data()),
                      "GAT attention weights");
}

TEST(SparseOpsTest, GatEmptyRowsProduceZerosLikeDenseAllMasked) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  const graph::RelationTensor rel = MakeTriangle();  // stock 3 isolated
  const int64_t n = 4, f = 3;
  Rng rng(17);
  const Tensor src0 = RandomGaussian({n, 1}, 0, 1, &rng);
  const Tensor dst0 = RandomGaussian({n, 1}, 0, 1, &rng);
  const Tensor h0 = RandomGaussian({n, f}, 0, 1, &rng);

  // No self loops: row 3 has no unmasked entry at all.
  ag::VarPtr e = ag::LeakyRelu(
      ag::Add(ag::Constant(src0), ag::Transpose(ag::Constant(dst0))), 0.2f);
  ag::VarPtr alpha = graph::MaskedRowSoftmax(e, rel.DenseMask());
  ag::VarPtr yd = ag::MatMul(alpha, ag::Constant(h0));

  graph::CsrPtr g =
      graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/false);
  ag::VarPtr ys = graph::SparseGatAttention(g, ag::Constant(src0),
                                            ag::Constant(dst0),
                                            ag::Constant(h0), 0.2f);
  checker.ExpectClose(yd->value, ys->value, "GAT empty-row forward");
  for (int64_t c = 0; c < f; ++c) {
    EXPECT_FLOAT_EQ(ys->value.data()[3 * f + c], 0.0f);
  }
}

// ---------------------------------------------------------------------------
// Numeric gradient checks on the sparse ops
// ---------------------------------------------------------------------------

TEST(SparseOpsTest, GradCheckEdgeWeightPropagate) {
  Rng rng(21);
  const graph::RelationTensor rel = RandomRelations(6, 3, 10, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  auto w = ag::MakeVariable(RandomGaussian({3}, 1.0f, 0.1f, &rng), true);
  auto b = ag::MakeVariable(Tensor::Zeros({1}), true);
  auto x = ag::MakeVariable(RandomUniform({6, 4}, 0.9f, 1.1f, &rng), true);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(
            ag::Square(graph::SparseEdgeWeightPropagate(g, w, b, x)));
      },
      {w, b, x}));
}

TEST(SparseOpsTest, GradCheckTimeSensitivePropagate) {
  Rng rng(22);
  const graph::RelationTensor rel = RandomRelations(5, 3, 8, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  auto w = ag::MakeVariable(RandomGaussian({3}, 1.0f, 0.1f, &rng), true);
  auto b = ag::MakeVariable(Tensor::Zeros({1}), true);
  auto x = ag::MakeVariable(RandomUniform({4, 5, 3}, 0.9f, 1.1f, &rng), true);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(
            ag::Square(graph::SparseTimeSensitivePropagate(g, w, b, x)));
      },
      {w, b, x}));
}

TEST(SparseOpsTest, GradCheckGatAttention) {
  Rng rng(23);
  const graph::RelationTensor rel = RandomRelations(6, 2, 10, &rng);
  graph::CsrPtr g = graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/true);
  auto src = ag::MakeVariable(RandomGaussian({6, 1}, 0, 0.5f, &rng), true);
  auto dst = ag::MakeVariable(RandomGaussian({6, 1}, 0, 0.5f, &rng), true);
  auto h = ag::MakeVariable(RandomGaussian({6, 4}, 0, 1, &rng), true);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(
            ag::Square(graph::SparseGatAttention(g, src, dst, h, 0.2f)));
      },
      {src, dst, h}));
}

// ---------------------------------------------------------------------------
// Backend equivalence through the real model surfaces
// ---------------------------------------------------------------------------

TEST(GraphBackendEquivalenceTest, RtGcnModelAllStrategies) {
  GraphChecker checker;
  checker.set_rtol(2e-3f).set_atol(2e-4f);
  Rng rng(31);
  const graph::RelationTensor rel = RandomRelations(28, 5, 120, &rng);
  const Tensor x0 = checker.Uniform({8, 28, 4}, 0.9f, 1.1f);
  const Tensor cot = checker.Gaussian({28});
  for (core::Strategy strat :
       {core::Strategy::kUniform, core::Strategy::kWeight,
        core::Strategy::kTimeSensitive}) {
    checker.Check("RT-GCN (" + core::StrategyName(strat) + ")", [&]() {
      Rng mrng(77);
      core::RtGcnConfig cfg;
      cfg.strategy = strat;
      cfg.window = 8;
      cfg.num_features = 4;
      cfg.relational_filters = 6;
      cfg.temporal_stride = 2;
      cfg.dropout = 0.0f;
      core::RtGcnModel model(rel, cfg, &mrng);
      model.SetTraining(false);
      Rng fwd(7);
      ag::VarPtr scores = model.Forward(ag::Constant(x0), &fwd);
      ag::Backward(ag::SumAll(ag::Mul(scores, ag::Constant(cot))));
      std::vector<Tensor> out{scores->value,
                              model.last_propagation().Clone()};
      for (const auto& p : model.Parameters()) out.push_back(p->grad);
      return out;
    });
  }
}

TEST(GraphBackendEquivalenceTest, GatLayerForwardBackwardAndAttention) {
  GraphChecker checker;
  checker.set_rtol(1e-3f).set_atol(1e-4f);
  Rng rng(32);
  const graph::RelationTensor rel = RandomRelations(26, 3, 90, &rng);
  const Tensor x0 = checker.Gaussian({26, 5});
  const Tensor cot = checker.Gaussian({26, 4});
  checker.Check("GatLayer", [&]() {
    Rng lrng(9);
    graph::GatLayer layer(rel, 5, 4, &lrng);
    ag::VarPtr xv = ag::MakeVariable(x0.Clone(), true);
    ag::VarPtr y = layer.Forward(xv);
    ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));
    std::vector<Tensor> out{y->value, xv->grad,
                            layer.last_attention().Clone()};
    for (const auto& p : layer.Parameters()) out.push_back(p->grad);
    return out;
  });
}

TEST(GraphBackendEquivalenceTest, RsrExplicitPredictorScores) {
  GraphChecker checker;
  checker.set_rtol(2e-3f).set_atol(2e-4f);
  Rng rng(33);
  const graph::RelationTensor rel = RandomRelations(20, 4, 70, &rng);
  const Tensor x0 = checker.Uniform({6, 20, 4}, 0.9f, 1.1f);
  checker.Check("RSR_E", [&]() {
    baselines::RsrPredictor pred(rel, baselines::RsrVariant::kExplicit,
                                 /*num_features=*/4, /*hidden=*/8,
                                 /*alpha=*/0.1f, /*seed=*/123);
    return std::vector<Tensor>{pred.Score(x0)};
  });
}

TEST(GraphBackendEquivalenceTest, DegenerateUniversesRunOnBothBackends) {
  GraphChecker checker;
  checker.set_rtol(2e-3f).set_atol(2e-4f);
  // No relations at all: propagation degenerates to the identity.
  graph::RelationTensor empty(5, 2);
  const Tensor xe = checker.Uniform({6, 5, 3}, 0.9f, 1.1f);
  // Single-stock universe (the market-generator regression case).
  graph::RelationTensor one(1, 1);
  const Tensor x1 = checker.Uniform({6, 1, 3}, 0.9f, 1.1f);
  struct Case {
    const graph::RelationTensor* rel;
    const Tensor* x;
    const char* name;
  } cases[] = {{&empty, &xe, "empty relations"}, {&one, &x1, "single stock"}};
  for (const Case& c : cases) {
    for (core::Strategy strat :
         {core::Strategy::kUniform, core::Strategy::kWeight,
          core::Strategy::kTimeSensitive}) {
      checker.Check(std::string(c.name) + " " + core::StrategyName(strat),
                    [&]() {
                      Rng mrng(41);
                      core::RtGcnConfig cfg;
                      cfg.strategy = strat;
                      cfg.window = 6;
                      cfg.num_features = 3;
                      cfg.relational_filters = 4;
                      cfg.temporal_stride = 2;
                      cfg.dropout = 0.0f;
                      core::RtGcnModel model(*c.rel, cfg, &mrng);
                      model.SetTraining(false);
                      Rng fwd(7);
                      ag::VarPtr scores =
                          model.Forward(ag::Constant(*c.x), &fwd);
                      for (int64_t i = 0; i < scores->value.numel(); ++i) {
                        EXPECT_TRUE(std::isfinite(scores->value.data()[i]))
                            << c.name;
                      }
                      return std::vector<Tensor>{scores->value};
                    });
    }
  }
}

// ---------------------------------------------------------------------------
// Backend dispatch (mirror of kernel_dispatch_test)
// ---------------------------------------------------------------------------

// Restores RTGCN_GRAPH_BACKEND and the selection after each test so
// ordering does not leak between cases.
class GraphDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("RTGCN_GRAPH_BACKEND");
    had_env_ = env != nullptr;
    if (had_env_) saved_env_ = env;
    prev_ = graph::ActiveGraphBackend();
  }
  void TearDown() override {
    if (had_env_) {
      ::setenv("RTGCN_GRAPH_BACKEND", saved_env_.c_str(), 1);
    } else {
      ::unsetenv("RTGCN_GRAPH_BACKEND");
    }
    graph::SetGraphBackend(prev_);
  }

  bool had_env_ = false;
  std::string saved_env_;
  graph::GraphBackend prev_ = graph::GraphBackend::kSparse;
};

TEST_F(GraphDispatchTest, ResolveBackendKnownNames) {
  ASSERT_TRUE(graph::ResolveGraphBackend("dense").ok());
  EXPECT_EQ(graph::ResolveGraphBackend("dense").ValueOrDie(),
            graph::GraphBackend::kDense);
  ASSERT_TRUE(graph::ResolveGraphBackend("sparse").ok());
  EXPECT_EQ(graph::ResolveGraphBackend("sparse").ValueOrDie(),
            graph::GraphBackend::kSparse);
  // auto (and empty) resolve to the O(E) sparse path.
  EXPECT_EQ(graph::ResolveGraphBackend("auto").ValueOrDie(),
            graph::GraphBackend::kSparse);
  EXPECT_EQ(graph::ResolveGraphBackend("").ValueOrDie(),
            graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, ResolveBackendRejectsUnknown) {
  for (const char* bad : {"csr", "DENSE", "Sparse", "fastest"}) {
    Result<graph::GraphBackend> r = graph::ResolveGraphBackend(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("unknown graph backend"),
              std::string::npos)
        << r.status().message();
  }
}

TEST_F(GraphDispatchTest, SetBackendByName) {
  ASSERT_TRUE(graph::SetGraphBackendByName("dense").ok());
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kDense);
  ASSERT_TRUE(graph::SetGraphBackendByName("sparse").ok());
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
  ASSERT_FALSE(graph::SetGraphBackendByName("not-a-backend").ok());
  // Failed resolution leaves the selection untouched.
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, EnvVarForcesDense) {
  ::setenv("RTGCN_GRAPH_BACKEND", "dense", 1);
  graph::ReinitGraphBackendFromEnvForTest();
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kDense);
}

TEST_F(GraphDispatchTest, InvalidEnvVarFallsBackToAuto) {
  ::setenv("RTGCN_GRAPH_BACKEND", "warp-drive", 1);
  graph::ReinitGraphBackendFromEnvForTest();
  // Must not abort; auto resolves to sparse.
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, UnsetEnvDefaultsToSparse) {
  ::unsetenv("RTGCN_GRAPH_BACKEND");
  graph::ReinitGraphBackendFromEnvForTest();
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, SelectionPublishedToRegistry) {
  auto& reg = obs::Registry::Global();
  graph::SetGraphBackend(graph::GraphBackend::kDense);
  EXPECT_EQ(reg.GetGauge("graph.backend")->Value(),
            static_cast<double>(graph::GraphBackend::kDense));
  const uint64_t before =
      reg.GetCounter("graph.backend.selected.sparse")->Value();
  graph::SetGraphBackend(graph::GraphBackend::kSparse);
  EXPECT_EQ(reg.GetGauge("graph.backend")->Value(),
            static_cast<double>(graph::GraphBackend::kSparse));
  EXPECT_EQ(reg.GetCounter("graph.backend.selected.sparse")->Value(),
            before + 1);
}

TEST_F(GraphDispatchTest, BuildMetricsPublished) {
  auto& reg = obs::Registry::Global();
  const uint64_t before = reg.GetCounter("graph.sparse.builds")->Value();
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(MakeTriangle());
  EXPECT_EQ(reg.GetCounter("graph.sparse.builds")->Value(), before + 1);
  EXPECT_EQ(reg.GetGauge("graph.sparse.last_build_entries")->Value(),
            static_cast<double>(g->num_entries()));
  EXPECT_EQ(reg.GetGauge("graph.sparse.last_build_bytes")->Value(),
            static_cast<double>(g->ApproxBytes()));
}

TEST_F(GraphDispatchTest, ScopedGraphBackendRestores) {
  graph::SetGraphBackend(graph::GraphBackend::kSparse);
  {
    ScopedGraphBackend scope(graph::GraphBackend::kDense);
    EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kDense);
  }
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

}  // namespace
}  // namespace rtgcn
