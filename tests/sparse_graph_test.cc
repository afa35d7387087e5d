// Sparse CSR graph path: construction invariants, and equivalence with the
// dense oracle formulas (forward + gradients) for every propagation op, for
// RtGcnLayer under all three strategies and for GatLayer, including edge
// cases and degenerate universes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "core/rtgcn.h"
#include "dense_graph_oracle.h"
#include "graph/gat.h"
#include "graph/sparse.h"
#include "graph_checker.h"
#include "kernel_checker.h"
#include "obs/registry.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
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

TEST(CsrGraphTest, BuildMetricsPublished) {
  auto& reg = obs::Registry::Global();
  const uint64_t before = reg.GetCounter("graph.sparse.builds")->Value();
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(MakeTriangle());
  EXPECT_EQ(reg.GetCounter("graph.sparse.builds")->Value(), before + 1);
  EXPECT_EQ(reg.GetGauge("graph.sparse.last_build_entries")->Value(),
            static_cast<double>(g->num_entries()));
  EXPECT_EQ(reg.GetGauge("graph.sparse.last_build_bytes")->Value(),
            static_cast<double>(g->ApproxBytes()));
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

  // Dense reference: the RSR_E aggregation ē = D^{-1} (S ⊙ M) e.
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

  // Dense reference: P(t) = Â ⊙ (X(t) X(t)ᵀ / √d) ⊙ S (Eq. 5).
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
// time-averaged diagnostic must match bit for bit — under every supported
// kernel backend, T on both sides of the 8-lane block, several D (4 and 16
// are the model's layer widths), constant x versus x requiring a gradient,
// a graph with isolated rows and an empty graph. N = 150 spans three
// 64-row chunks of the w/b reduction.
void ExpectTimeSensitiveMatchesReferenceLoops(const std::string& backend) {
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
      for (int64_t d : {1, 4, 6, 16}) {
        const Tensor x0 = RandomUniform({t_len, n, d}, -1.0f, 1.5f, &rng);
        const Tensor cot = RandomGaussian({t_len, n, d}, 0.0f, 1.0f, &rng);
        const Tensor w0 = RandomGaussian({k}, 1.0f, 0.1f, &rng);
        const Tensor b0 = RandomGaussian({1}, 0.0f, 0.1f, &rng);
        for (Grads grads :
             {Grads::kWeightsOnly, Grads::kWeightsAndX, Grads::kXOnly}) {
          const bool wb_grad = grads != Grads::kXOnly;
          const bool x_grad = grads != Grads::kWeightsOnly;
          const std::string ctx = backend + " " + gc.name +
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

TEST(SparseOpsTest, TimeSensitivePropagateBitIdenticalToReferenceLoops) {
  for (const kernels::KernelSet* ks : kernels::AllKernels()) {
    if (!ks->supported()) continue;
    ScopedKernelBackend scope(ks == &kernels::Avx2()
                                  ? kernels::Backend::kAvx2
                                  : kernels::Backend::kReference);
    ExpectTimeSensitiveMatchesReferenceLoops(ks->name);
  }
}

// The dx pass reads corr[e] where the transpose entry's value corr[rev e]
// is meant: x_i · x_j and x_j · x_i sum the same products in the same
// feature order, so the two are the same bits, under every backend.
TEST(SparseOpsTest, TimeSensitiveCorrelationIsSymmetricBitwise) {
  Rng rng(19);
  const graph::RelationTensor rel = RandomRelations(60, 3, 240, &rng);
  const graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  const int32_t* rev = g->reverse_entry().data();
  for (const kernels::KernelSet* ks : kernels::AllKernels()) {
    if (!ks->supported()) continue;
    ScopedKernelBackend scope(ks == &kernels::Avx2()
                                  ? kernels::Backend::kAvx2
                                  : kernels::Backend::kReference);
    for (int64_t d : {1, 4, 6, 16}) {
      const auto w = ag::Constant(RandomGaussian({3}, 1.0f, 0.1f, &rng));
      const auto b = ag::Constant(Tensor::Zeros({1}));
      const auto x =
          ag::Constant(RandomUniform({15, 60, d}, -1.0f, 1.5f, &rng));
      graph::TimeSensitiveEdgeValues saved;
      graph::SparseTimeSensitivePropagate(g, w, b, x, &saved);
      ASSERT_TRUE(saved.defined());
      int64_t mismatches = 0;
      for (int64_t e = 0; e < g->num_entries(); ++e) {
        const float* ce = saved.corr.get() + e * saved.t_stride;
        const float* cr = saved.corr.get() + rev[e] * saved.t_stride;
        if (std::memcmp(ce, cr, sizeof(float) * saved.t_steps) != 0) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0) << ks->name << " D=" << d;
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

  // Dense reference: GAT attention over the mask with self loops.
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
// The real layers against the dense formulas on their own parameters
// ---------------------------------------------------------------------------

// A parameter's gradient, or zeros when backward never reached it (a graph
// without edges gives the relation weights no gradient path).
Tensor GradOrZeros(const ag::VarPtr& p) {
  return p->grad.defined() ? p->grad : Tensor::Zeros(p->value.shape());
}

using NamedParams = std::vector<std::pair<std::string, ag::VarPtr>>;

// Fresh leaves holding copies of `module`'s parameter values, in
// NamedParameters() order, so the dense formulas get their own gradients.
NamedParams CopyParameters(const nn::Module& module) {
  NamedParams out;
  for (const auto& [name, p] : module.NamedParameters()) {
    out.emplace_back(name, ag::MakeVariable(p->value.Clone(), true));
  }
  return out;
}

ag::VarPtr Param(const NamedParams& params, const std::string& name) {
  for (const auto& [n, v] : params) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "no parameter " << name;
  return nullptr;
}

// Runs `forward` on a gradient-tracking copy of x0, backpropagates the
// cotangent and returns {y, dx, every parameter grad, diagnostic}.
std::vector<Tensor> ForwardBackward(
    const Tensor& x0, const Tensor& cot, const NamedParams& params,
    const std::function<ag::VarPtr(const ag::VarPtr&)>& forward,
    const std::function<Tensor()>& diagnostic) {
  ag::VarPtr x = ag::MakeVariable(x0.Clone(), true);
  ag::VarPtr y = forward(x);
  ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));
  std::vector<Tensor> out{y->value, x->grad};
  for (const auto& [name, p] : params) out.push_back(GradOrZeros(p));
  out.push_back(diagnostic());
  return out;
}

// Dense oracle of an RtGcnLayer without its temporal block:
// ReLU((P ⊛ X) Θ) with the strategy's [N, N] propagation matrix P (Eq. 3–5).
// The diagnostic is P, time-averaged for the time-sensitive strategy.
std::vector<Tensor> DenseRtGcnLayer(const graph::RelationTensor& rel,
                                    core::Strategy strategy,
                                    const nn::Module& layer, const Tensor& x0,
                                    const Tensor& cot) {
  const NamedParams params = CopyParameters(layer);
  const int64_t t_len = x0.dim(0), n = x0.dim(1), d = x0.dim(2);
  const ag::VarPtr adj = ag::Constant(graph::NormalizedAdjacency(rel));
  Tensor p;
  auto forward = [&](const ag::VarPtr& x) {
    // Every strategy except Uniform scales Â by S (Eq. 4).
    ag::VarPtr base = adj;
    if (strategy != core::Strategy::kUniform) {
      base = ag::Mul(adj, graph::RelationEdgeWeights(
                              rel, Param(params, "relation_w"),
                              Param(params, "relation_b")));
    }
    ag::VarPtr propagated;
    if (strategy == core::Strategy::kTimeSensitive) {
      // P(t) = Â ⊙ S ⊙ X(t) X(t)ᵀ / √d (Eq. 5).
      ag::VarPtr corr = ag::MulScalar(
          ag::BatchMatMul(x, ag::Permute(x, {0, 2, 1})),
          1.0f / std::sqrt(static_cast<float>(d)));
      ag::VarPtr pt = ag::Mul(corr, base);
      p = rtgcn::Mean(pt->value, 0);
      propagated = ag::BatchMatMul(pt, x);
    } else {
      p = base->value;
      ag::VarPtr xn = ag::Reshape(ag::Permute(x, {1, 0, 2}), {n, t_len * d});
      propagated = ag::Permute(
          ag::Reshape(ag::MatMul(base, xn), {n, t_len, d}), {1, 0, 2});
    }
    ag::VarPtr theta = Param(params, "theta");
    return ag::Relu(ag::Reshape(
        ag::MatMul(ag::Reshape(propagated, {t_len * n, d}), theta),
        {t_len, n, theta->value.dim(1)}));
  };
  return ForwardBackward(x0, cot, params, forward, [&] { return p; });
}

// Dense oracle of a GatLayer: α = masked row softmax of
// LeakyReLU(a_src·Wh_i + a_dst·Wh_j) over related pairs plus self loops,
// y = α W h. The diagnostic is α.
std::vector<Tensor> DenseGatLayer(const graph::RelationTensor& rel,
                                  const nn::Module& layer, const Tensor& x0,
                                  const Tensor& cot) {
  const NamedParams params = CopyParameters(layer);
  Tensor mask = rel.DenseMask();
  const int64_t n = rel.num_stocks();
  for (int64_t i = 0; i < n; ++i) mask.data()[i * n + i] = 1.0f;
  Tensor alpha;
  auto forward = [&](const ag::VarPtr& x) {
    ag::VarPtr h = ag::MatMul(x, Param(params, "weight"));
    ag::VarPtr src = ag::MatMul(h, Param(params, "a_src"));
    ag::VarPtr dst = ag::Transpose(ag::MatMul(h, Param(params, "a_dst")));
    ag::VarPtr a = graph::MaskedRowSoftmax(
        ag::LeakyRelu(ag::Add(src, dst), 0.2f), mask);
    alpha = a->value;
    return ag::MatMul(a, h);
  };
  return ForwardBackward(x0, cot, params, forward, [&] { return alpha; });
}

struct Universe {
  const char* name;
  graph::RelationTensor rel;
};

// A random sparse universe plus the degenerate ones: no relations at all
// (propagation degenerates to the identity) and a single stock (the
// market-generator regression case).
std::vector<Universe> EquivalenceUniverses() {
  Rng rng(31);
  std::vector<Universe> out;
  out.push_back({"random", RandomRelations(28, 5, 120, &rng)});
  out.push_back({"empty relations", graph::RelationTensor(5, 2)});
  out.push_back({"single stock", graph::RelationTensor(1, 1)});
  return out;
}

TEST(GraphBackendEquivalenceTest, RtGcnLayerMatchesDenseFormulas) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  for (const Universe& u : EquivalenceUniverses()) {
    const int64_t n = u.rel.num_stocks(), t_len = 8, d = 4, f = 6;
    const Tensor x0 = checker.Uniform({t_len, n, d}, 0.9f, 1.1f);
    const Tensor cot = checker.Gaussian({t_len, n, f});
    for (core::Strategy strategy :
         {core::Strategy::kUniform, core::Strategy::kWeight,
          core::Strategy::kTimeSensitive}) {
      core::RtGcnConfig cfg;
      cfg.strategy = strategy;
      cfg.use_temporal = false;
      Rng lrng(77);
      const core::RtGcnLayer layer(u.rel, cfg, d, f, &lrng);
      checker.Check(
          std::string(u.name) + " RT-GCN (" + core::StrategyName(strategy) +
              ")",
          [&] { return DenseRtGcnLayer(u.rel, strategy, layer, x0, cot); },
          [&] {
            Rng fwd(7);
            return ForwardBackward(
                x0, cot, layer.NamedParameters(),
                [&](const ag::VarPtr& x) { return layer.Forward(x, &fwd); },
                [&] { return layer.Propagation(x0); });
          });
    }
  }
}

TEST(GraphBackendEquivalenceTest, GatLayerMatchesDenseFormulas) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  for (const Universe& u : EquivalenceUniverses()) {
    const int64_t n = u.rel.num_stocks();
    const Tensor x0 = checker.Gaussian({n, 5});
    const Tensor cot = checker.Gaussian({n, 4});
    Rng lrng(9);
    const graph::GatLayer layer(u.rel, 5, 4, &lrng);
    checker.Check(
        std::string(u.name) + " GatLayer",
        [&] { return DenseGatLayer(u.rel, layer, x0, cot); },
        [&] {
          return ForwardBackward(
              x0, cot, layer.NamedParameters(),
              [&](const ag::VarPtr& x) { return layer.Forward(x); },
              [&] { return layer.Attention(x0); });
        });
  }
}

}  // namespace
}  // namespace rtgcn
