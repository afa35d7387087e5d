// Bit-identity of the parallel execution backend: every op wired to the
// thread pool must produce byte-for-byte identical results at num_threads=1
// (the exact serial code path) and num_threads in {2, 4, 8}. Chunk
// boundaries depend only on problem size and every output element keeps its
// serial accumulation order, so this is an equality check, not a tolerance.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "core/rtgcn.h"
#include "dense_graph_oracle.h"
#include "graph/sparse.h"
#include "kernel_checker.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

constexpr int kThreadCounts[] = {2, 4, 8};

// Runs `run` at num_threads=1 (reference: exact serial path) and at each
// parallel thread count, asserting byte-for-byte equal outputs.
void ExpectBitIdenticalAcrossThreadCounts(
    const std::function<std::vector<Tensor>()>& run, const std::string& what) {
  SetNumThreads(1);
  const std::vector<Tensor> ref = run();
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    const std::vector<Tensor> got = run();
    ASSERT_EQ(ref.size(), got.size()) << what;
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i].shape(), got[i].shape())
          << what << " output " << i << " at threads=" << t;
      EXPECT_EQ(std::memcmp(ref[i].data(), got[i].data(),
                            sizeof(float) * ref[i].numel()),
                0)
          << what << " output " << i << " differs at threads=" << t;
    }
  }
  SetNumThreads(0);
}

// Single-tensor convenience wrapper.
void ExpectOpBitIdentical(const std::function<Tensor()>& run,
                          const std::string& what) {
  ExpectBitIdenticalAcrossThreadCounts(
      [&] { return std::vector<Tensor>{run()}; }, what);
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

TEST(ParallelEquivalenceTest, ElementwiseBinarySameShape) {
  Rng rng(1);
  const Tensor a = RandomGaussian({160, 257}, 0, 1, &rng);
  const Tensor b = RandomUniform({160, 257}, 0.5f, 1.5f, &rng);
  ExpectOpBitIdentical([&] { return Add(a, b); }, "Add");
  ExpectOpBitIdentical([&] { return Sub(a, b); }, "Sub");
  ExpectOpBitIdentical([&] { return Mul(a, b); }, "Mul");
  ExpectOpBitIdentical([&] { return Div(a, b); }, "Div");
  ExpectOpBitIdentical([&] { return Maximum(a, b); }, "Maximum");
  ExpectOpBitIdentical([&] { return Minimum(a, b); }, "Minimum");
}

TEST(ParallelEquivalenceTest, ElementwiseBinaryBroadcast) {
  Rng rng(2);
  const Tensor a = RandomGaussian({37, 1, 29}, 0, 1, &rng);
  const Tensor b = RandomUniform({19, 29}, 0.5f, 1.5f, &rng);
  const Tensor row = RandomGaussian({1, 257}, 0, 1, &rng);
  const Tensor mat = RandomGaussian({160, 257}, 0, 1, &rng);
  ExpectOpBitIdentical([&] { return Add(a, b); }, "Add broadcast 3d");
  ExpectOpBitIdentical([&] { return Mul(a, b); }, "Mul broadcast 3d");
  ExpectOpBitIdentical([&] { return Add(mat, row); }, "Add broadcast row");
  ExpectOpBitIdentical([&] { return BroadcastTo(row, {160, 257}); },
                       "BroadcastTo");
}

TEST(ParallelEquivalenceTest, ElementwiseScalarAndUnary) {
  Rng rng(3);
  const Tensor a = RandomGaussian({211, 193}, 0, 1, &rng);
  ExpectOpBitIdentical([&] { return AddScalar(a, 0.37f); }, "AddScalar");
  ExpectOpBitIdentical([&] { return MulScalar(a, -1.21f); }, "MulScalar");
  ExpectOpBitIdentical([&] { return Relu(a); }, "Relu");
  ExpectOpBitIdentical([&] { return Sigmoid(a); }, "Sigmoid");
  ExpectOpBitIdentical([&] { return Tanh(a); }, "Tanh");
  ExpectOpBitIdentical([&] { return Exp(a); }, "Exp");
  ExpectOpBitIdentical([&] { return Square(a); }, "Square");
  ExpectOpBitIdentical([&] { return Clamp(a, -0.5f, 0.5f); }, "Clamp");
}

TEST(ParallelEquivalenceTest, MatMul) {
  Rng rng(4);
  const Tensor a = RandomGaussian({129, 77}, 0, 1, &rng);
  const Tensor b = RandomGaussian({77, 65}, 0, 1, &rng);
  ExpectOpBitIdentical([&] { return MatMul(a, b); }, "MatMul");
  // Sparse rows exercise the zero-skip fast path inside row panels.
  Tensor sparse = a.Clone();
  for (int64_t i = 0; i < sparse.numel(); i += 3) sparse.data()[i] = 0.0f;
  ExpectOpBitIdentical([&] { return MatMul(sparse, b); }, "MatMul sparse");
}

TEST(ParallelEquivalenceTest, BatchMatMul) {
  Rng rng(5);
  const Tensor a = RandomGaussian({7, 33, 21}, 0, 1, &rng);
  const Tensor b3 = RandomGaussian({7, 21, 19}, 0, 1, &rng);
  const Tensor b2 = RandomGaussian({21, 19}, 0, 1, &rng);
  ExpectOpBitIdentical([&] { return BatchMatMul(a, b3); }, "BatchMatMul 3d");
  ExpectOpBitIdentical([&] { return BatchMatMul(a, b2); },
                       "BatchMatMul shared rhs");
}

TEST(ParallelEquivalenceTest, AxisReductions) {
  Rng rng(6);
  const Tensor a = RandomGaussian({16, 64, 48}, 0, 1, &rng);
  for (int64_t axis : {0, 1, 2}) {
    const std::string tag = " axis=" + std::to_string(axis);
    ExpectOpBitIdentical([&] { return Sum(a, axis); }, "Sum" + tag);
    ExpectOpBitIdentical([&] { return Mean(a, axis); }, "Mean" + tag);
    ExpectOpBitIdentical([&] { return Max(a, axis); }, "Max" + tag);
    ExpectOpBitIdentical([&] { return Argmax(a, axis); }, "Argmax" + tag);
    ExpectOpBitIdentical([&] { return Softmax(a, axis); }, "Softmax" + tag);
  }
  ExpectOpBitIdentical([&] { return Sum(a, -1, /*keepdims=*/true); },
                       "Sum keepdims");
  ExpectOpBitIdentical([&] { return ReduceToShape(a, {1, 64, 1}); },
                       "ReduceToShape");
}

TEST(ParallelEquivalenceTest, FullReductionsExactUnderAnyAssociation) {
  Rng rng(7);
  const Tensor a = RandomGaussian({301, 173}, 0, 1, &rng);
  SetNumThreads(1);
  const float max1 = MaxAll(a);
  const float min1 = MinAll(a);
  for (int t : kThreadCounts) {
    SetNumThreads(t);
    EXPECT_EQ(max1, MaxAll(a)) << "MaxAll threads=" << t;
    EXPECT_EQ(min1, MinAll(a)) << "MinAll threads=" << t;
  }
  SetNumThreads(0);
}

TEST(ParallelEquivalenceTest, LayoutTransforms) {
  Rng rng(8);
  const Tensor m = RandomGaussian({123, 217}, 0, 1, &rng);
  const Tensor t4 = RandomGaussian({19, 26, 11, 14}, 0, 1, &rng);
  ExpectOpBitIdentical([&] { return Transpose(m); }, "Transpose");
  ExpectOpBitIdentical([&] { return Permute(t4, {2, 0, 3, 1}); }, "Permute");
  ExpectOpBitIdentical([&] { return Permute(t4, {3, 2, 1, 0}); },
                       "Permute reverse");
  ExpectOpBitIdentical([&] { return Slice(m, 0, 17, 101); }, "Slice rows");
  ExpectOpBitIdentical([&] { return Slice(t4, 2, 3, 9); }, "Slice middle");
}

TEST(ParallelEquivalenceTest, GraphKernels) {
  Rng rng(9);
  const graph::RelationTensor rel = RandomRelations(70, 4, 400, &rng);
  ExpectOpBitIdentical([&] { return rel.DenseMask(); }, "DenseMask");
  ExpectOpBitIdentical([&] { return graph::NormalizedAdjacency(rel); },
                       "NormalizedAdjacency");
}

TEST(ParallelEquivalenceTest, RelationEdgeWeightsForwardAndBackward) {
  Rng rng(10);
  const graph::RelationTensor rel = RandomRelations(60, 5, 350, &rng);
  const Tensor cotangent =
      RandomGaussian({rel.num_stocks(), rel.num_stocks()}, 0, 1, &rng);
  const Tensor w0 = RandomGaussian({rel.num_relation_types()}, 1, 0.1f, &rng);
  ExpectBitIdenticalAcrossThreadCounts(
      [&] {
        auto w = ag::MakeVariable(w0.Clone(), /*requires_grad=*/true);
        auto b = ag::MakeVariable(Tensor::Zeros({1}), /*requires_grad=*/true);
        auto s = graph::RelationEdgeWeights(rel, w, b);
        ag::Backward(ag::SumAll(ag::Mul(s, ag::Constant(cotangent))));
        return std::vector<Tensor>{s->value, w->grad, b->grad};
      },
      "RelationEdgeWeights fwd+bwd");
}

// Fresh model + identical rng streams per run: the full forward/backward —
// scores, loss and every parameter gradient — must be bitwise reproducible
// at any thread count, for all three propagation strategies.
TEST(ParallelEquivalenceTest, FullModelForwardBackward) {
  for (core::Strategy s : {core::Strategy::kUniform, core::Strategy::kWeight,
                           core::Strategy::kTimeSensitive}) {
    ExpectBitIdenticalAcrossThreadCounts(
        [&] {
          Rng rng(123);
          const graph::RelationTensor rel = RandomRelations(30, 5, 140, &rng);
          core::RtGcnConfig cfg;
          cfg.strategy = s;
          cfg.window = 8;
          cfg.num_features = 4;
          cfg.relational_filters = 6;
          cfg.temporal_stride = 2;
          cfg.dropout = 0.1f;  // masks drawn from the (fixed) fwd stream
          core::RtGcnModel model(rel, cfg, &rng);
          const Tensor x = RandomUniform({8, 30, 4}, 0.9f, 1.1f, &rng);
          const Tensor y = RandomGaussian({30}, 0, 0.02f, &rng);
          Rng fwd(7);
          auto scores = model.Forward(ag::Constant(x), &fwd);
          auto loss = core::CombinedLoss(scores, y, 0.1f);
          ag::Backward(loss);
          std::vector<Tensor> out{scores->value, loss->value};
          for (const auto& p : model.Parameters()) out.push_back(p->grad);
          return out;
        },
        "RT-GCN (" + core::StrategyName(s) + ") fwd+bwd");
  }
}

// Analytic-vs-numeric agreement must hold on the parallel kernels too: the
// full model passes gradcheck at every thread count.
TEST(ParallelEquivalenceTest, FullModelGradCheckAtEveryThreadCount) {
  for (int t : {1, 2, 4, 8}) {
    SetNumThreads(t);
    Rng rng(11);
    graph::RelationTensor rel = RandomRelations(6, 3, 8, &rng);
    core::RtGcnConfig cfg;
    cfg.strategy = core::Strategy::kTimeSensitive;
    cfg.window = 5;
    cfg.num_features = 3;
    cfg.relational_filters = 4;
    cfg.temporal_stride = 2;
    cfg.dropout = 0.0f;
    core::RtGcnModel model(rel, cfg, &rng);
    model.SetTraining(false);
    const Tensor x = RandomUniform({5, 6, 3}, 0.9f, 1.1f, &rng);
    const Tensor y = RandomGaussian({6}, 0, 0.02f, &rng);
    auto params = model.Parameters();
    Rng fwd(3);
    EXPECT_TRUE(ag::GradCheck(
        [&](const std::vector<ag::VarPtr>&) {
          return core::CombinedLoss(model.Forward(ag::Constant(x), &fwd), y,
                                    0.1f);
        },
        params, /*tol=*/8e-2f))
        << "threads=" << t;
  }
  SetNumThreads(0);
}

// The determinism contract holds per kernel backend: results may differ
// BETWEEN backends (FMA contraction, vectorized exp — the kernel_checker
// covers cross-backend agreement with tolerances), but within one backend
// they must be bit-identical at every thread count. Shapes are chosen so
// ParallelFor chunk boundaries land mid-panel and mid-vector.
TEST(ParallelEquivalenceTest, KernelBackendsTimesThreadCounts) {
  Rng rng(12);
  const Tensor a = RandomGaussian({67, 53}, 0, 1, &rng);
  const Tensor b = RandomGaussian({53, 41}, 0, 1, &rng);
  const Tensor e = RandomUniform({67, 53}, 0.5f, 1.5f, &rng);
  const Tensor batched = RandomGaussian({5, 19, 23}, 0, 1, &rng);
  const Tensor batched_b = RandomGaussian({5, 23, 17}, 0, 1, &rng);
  const Tensor logits = RandomGaussian({43, 37}, 0, 4, &rng);
  for (const kernels::KernelSet* ks : kernels::AllKernels()) {
    if (!ks->supported()) {
      GTEST_LOG_(INFO) << "backend '" << ks->name << "' unsupported; skipped";
      continue;
    }
    ScopedKernelBackend scope(ks == &kernels::Avx2()
                                  ? kernels::Backend::kAvx2
                                  : kernels::Backend::kReference);
    const std::string tag = std::string(" [") + ks->name + "]";
    ExpectOpBitIdentical([&] { return MatMul(a, b); }, "MatMul" + tag);
    ExpectOpBitIdentical([&] { return BatchMatMul(batched, batched_b); },
                         "BatchMatMul" + tag);
    ExpectOpBitIdentical([&] { return Softmax(logits, 1); }, "Softmax" + tag);
    ExpectOpBitIdentical([&] { return Transpose(a); }, "Transpose" + tag);
    ExpectOpBitIdentical([&] { return Add(a, e); }, "Add" + tag);
    ExpectOpBitIdentical([&] { return Div(a, e); }, "Div" + tag);
    ExpectOpBitIdentical([&] { return Relu(a); }, "Relu" + tag);
    ExpectOpBitIdentical([&] { return LeakyRelu(a, 0.2f); },
                         "LeakyRelu" + tag);
  }
}

// Full model forward/backward stays bitwise thread-count-independent under
// each backend too (the training loop runs whatever auto selects).
TEST(ParallelEquivalenceTest, FullModelPerKernelBackend) {
  for (const kernels::KernelSet* ks : kernels::AllKernels()) {
    if (!ks->supported()) continue;
    ScopedKernelBackend scope(ks == &kernels::Avx2()
                                  ? kernels::Backend::kAvx2
                                  : kernels::Backend::kReference);
    ExpectBitIdenticalAcrossThreadCounts(
        [&] {
          Rng rng(321);
          const graph::RelationTensor rel = RandomRelations(24, 4, 100, &rng);
          core::RtGcnConfig cfg;
          cfg.strategy = core::Strategy::kWeight;
          cfg.window = 6;
          cfg.num_features = 4;
          cfg.relational_filters = 5;
          cfg.temporal_stride = 2;
          cfg.dropout = 0.0f;
          core::RtGcnModel model(rel, cfg, &rng);
          const Tensor x = RandomUniform({6, 24, 4}, 0.9f, 1.1f, &rng);
          const Tensor y = RandomGaussian({24}, 0, 0.02f, &rng);
          Rng fwd(5);
          auto scores = model.Forward(ag::Constant(x), &fwd);
          auto loss = core::CombinedLoss(scores, y, 0.1f);
          ag::Backward(loss);
          std::vector<Tensor> out{scores->value, loss->value};
          for (const auto& p : model.Parameters()) out.push_back(p->grad);
          return out;
        },
        std::string("RT-GCN fwd+bwd [") + ks->name + "]");
  }
}

// The sparse CSR propagation ops segment-partition rows across the pool
// with serial per-row accumulation and reduce parameter gradients through
// ParallelReduce's fixed left fold, so forward AND backward must be
// byte-for-byte thread-count independent.
TEST(ParallelEquivalenceTest, SparseGraphOpsBitIdenticalAcrossThreadCounts) {
  Rng rng(13);
  const graph::RelationTensor rel = RandomRelations(70, 4, 400, &rng);
  const graph::CsrPtr norm = graph::CsrGraph::NormalizedAdjacency(rel);
  const graph::CsrPtr mask = graph::CsrGraph::UniformMask(rel, true);
  const Tensor x0 = RandomGaussian({70, 9}, 0, 1, &rng);
  const Tensor cot = RandomGaussian({70, 9}, 0, 1, &rng);
  const Tensor xt0 = RandomUniform({5, 70, 6}, 0.9f, 1.1f, &rng);
  const Tensor cott = RandomGaussian({5, 70, 6}, 0, 1, &rng);
  const Tensor w0 = RandomGaussian({4}, 1.0f, 0.1f, &rng);
  const Tensor src0 = RandomGaussian({70, 1}, 0, 1, &rng);
  const Tensor dst0 = RandomGaussian({70, 1}, 0, 1, &rng);

  ExpectBitIdenticalAcrossThreadCounts(
      [&] {
        auto x = ag::MakeVariable(x0.Clone(), /*requires_grad=*/true);
        auto y = graph::SparsePropagate(norm, x);
        ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));
        return std::vector<Tensor>{y->value, x->grad};
      },
      "SparsePropagate fwd+bwd");

  ExpectBitIdenticalAcrossThreadCounts(
      [&] {
        auto w = ag::MakeVariable(w0.Clone(), /*requires_grad=*/true);
        auto b = ag::MakeVariable(Tensor::Zeros({1}), /*requires_grad=*/true);
        auto x = ag::MakeVariable(x0.Clone(), /*requires_grad=*/true);
        auto y = graph::SparseEdgeWeightPropagate(norm, w, b, x);
        ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));
        return std::vector<Tensor>{y->value, w->grad, b->grad, x->grad};
      },
      "SparseEdgeWeightPropagate fwd+bwd");

  ExpectBitIdenticalAcrossThreadCounts(
      [&] {
        auto w = ag::MakeVariable(w0.Clone(), /*requires_grad=*/true);
        auto b = ag::MakeVariable(Tensor::Zeros({1}), /*requires_grad=*/true);
        auto x = ag::MakeVariable(xt0.Clone(), /*requires_grad=*/true);
        auto y = graph::SparseTimeSensitivePropagate(norm, w, b, x);
        ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cott))));
        return std::vector<Tensor>{y->value, w->grad, b->grad, x->grad};
      },
      "SparseTimeSensitivePropagate fwd+bwd");

  ExpectBitIdenticalAcrossThreadCounts(
      [&] {
        auto src = ag::MakeVariable(src0.Clone(), /*requires_grad=*/true);
        auto dst = ag::MakeVariable(dst0.Clone(), /*requires_grad=*/true);
        auto h = ag::MakeVariable(x0.Clone(), /*requires_grad=*/true);
        auto y = graph::SparseGatAttention(mask, src, dst, h, 0.2f);
        ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));
        return std::vector<Tensor>{y->value, src->grad, dst->grad, h->grad};
      },
      "SparseGatAttention fwd+bwd");
}

// The determinism contract holds through the full model on the sparse
// graph path too, for all three propagation strategies.
TEST(ParallelEquivalenceTest, GraphBackendsTimesThreadCounts) {
  for (core::Strategy s : {core::Strategy::kUniform, core::Strategy::kWeight,
                           core::Strategy::kTimeSensitive}) {
    ExpectBitIdenticalAcrossThreadCounts(
        [&] {
          Rng rng(456);
          const graph::RelationTensor rel = RandomRelations(26, 4, 110, &rng);
          core::RtGcnConfig cfg;
          cfg.strategy = s;
          cfg.window = 7;
          cfg.num_features = 4;
          cfg.relational_filters = 5;
          cfg.temporal_stride = 2;
          cfg.dropout = 0.1f;
          core::RtGcnModel model(rel, cfg, &rng);
          const Tensor x = RandomUniform({7, 26, 4}, 0.9f, 1.1f, &rng);
          const Tensor y = RandomGaussian({26}, 0, 0.02f, &rng);
          Rng fwd(9);
          auto scores = model.Forward(ag::Constant(x), &fwd);
          auto loss = core::CombinedLoss(scores, y, 0.1f);
          ag::Backward(loss);
          std::vector<Tensor> out{scores->value, loss->value};
          for (const auto& p : model.Parameters()) out.push_back(p->grad);
          return out;
        },
        std::string("RT-GCN (") + core::StrategyName(s) + ") [sparse]");
  }
}

// Property sweep: random shapes and seeds through the most heavily
// parallelized kernels.
TEST(ParallelEquivalenceTest, RandomShapesAndSeeds) {
  for (uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    Rng shape_rng(seed);
    const int64_t m = 30 + static_cast<int64_t>(shape_rng.UniformInt(200));
    const int64_t k = 1 + static_cast<int64_t>(shape_rng.UniformInt(90));
    const int64_t n = 1 + static_cast<int64_t>(shape_rng.UniformInt(120));
    Rng rng(seed * 7 + 1);
    const Tensor a = RandomGaussian({m, k}, 0, 1, &rng);
    const Tensor b = RandomGaussian({k, n}, 0, 1, &rng);
    const Tensor c = RandomGaussian({m, n}, 0, 1, &rng);
    const std::string tag = " seed=" + std::to_string(seed);
    ExpectOpBitIdentical([&] { return MatMul(a, b); }, "MatMul" + tag);
    ExpectOpBitIdentical([&] { return Add(MatMul(a, b), c); },
                         "MatMul+Add" + tag);
    ExpectOpBitIdentical([&] { return Sum(c, 0); }, "Sum0" + tag);
    ExpectOpBitIdentical([&] { return Softmax(c, 1); }, "Softmax" + tag);
  }
}

}  // namespace
}  // namespace rtgcn
