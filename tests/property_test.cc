// Property-based sweeps (parameterized gtest) over the numeric substrate:
// invariants that must hold for arbitrary shapes/seeds, not just the
// hand-picked cases in the unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "core/loss.h"
#include "dense_graph_oracle.h"
#include "kernel_checker.h"
#include "rank/metrics.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

// ---------------------------------------------------------------------------
// Tensor algebra properties across shapes and seeds
// ---------------------------------------------------------------------------

class TensorAlgebraProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, uint64_t>> {
 protected:
  void SetUp() override {
    auto [m, n, seed] = GetParam();
    rng_ = Rng(seed);
    m_ = m;
    n_ = n;
  }
  Rng rng_{0};
  int64_t m_ = 0, n_ = 0;
};

TEST_P(TensorAlgebraProperty, AddCommutesMulDistributes) {
  Tensor a = RandomGaussian({m_, n_}, 0, 1, &rng_);
  Tensor b = RandomGaussian({m_, n_}, 0, 1, &rng_);
  Tensor c = RandomGaussian({m_, n_}, 0, 1, &rng_);
  EXPECT_TRUE(AllClose(Add(a, b), Add(b, a), 0, 0));
  EXPECT_TRUE(AllClose(Mul(a, Add(b, c)), Add(Mul(a, b), Mul(a, c)), 1e-4f,
                       1e-5f));
}

TEST_P(TensorAlgebraProperty, MatMulTransposeIdentity) {
  // (A B)^T == B^T A^T
  Tensor a = RandomGaussian({m_, n_}, 0, 1, &rng_);
  Tensor b = RandomGaussian({n_, m_}, 0, 1, &rng_);
  EXPECT_TRUE(AllClose(Transpose(MatMul(a, b)),
                       MatMul(Transpose(b), Transpose(a)), 1e-3f, 1e-4f));
}

TEST_P(TensorAlgebraProperty, SumAxesEqualsSumAll) {
  Tensor a = RandomGaussian({m_, n_}, 0, 1, &rng_);
  EXPECT_NEAR(SumAll(Sum(a, 0)).item(), SumAll(a).item(),
              1e-3f * static_cast<float>(m_ * n_));
  EXPECT_NEAR(SumAll(Sum(a, 1)).item(), SumAll(a).item(),
              1e-3f * static_cast<float>(m_ * n_));
}

TEST_P(TensorAlgebraProperty, SoftmaxInvariantToShift) {
  Tensor a = RandomGaussian({m_, n_}, 0, 3, &rng_);
  Tensor shifted = AddScalar(a, 100.0f);
  EXPECT_TRUE(AllClose(Softmax(a, 1), Softmax(shifted, 1), 1e-3f, 1e-5f));
}

TEST_P(TensorAlgebraProperty, SliceConcatRoundTrip) {
  Tensor a = RandomGaussian({m_, n_}, 0, 1, &rng_);
  const int64_t cut = n_ / 2;
  Tensor rebuilt =
      Concat({Slice(a, 1, 0, cut), Slice(a, 1, cut, n_)}, 1);
  EXPECT_TRUE(AllClose(rebuilt, a, 0, 0));
}

TEST_P(TensorAlgebraProperty, BroadcastReduceAdjoint) {
  // <BroadcastTo(x), y> == <x, ReduceToShape(y)> — the adjoint identity the
  // autograd engine relies on for broadcast gradients.
  Tensor x = RandomGaussian({n_}, 0, 1, &rng_);
  Tensor y = RandomGaussian({m_, n_}, 0, 1, &rng_);
  const float lhs = Dot(BroadcastTo(x, {m_, n_}), y);
  const float rhs = Dot(x, ReduceToShape(y, {n_}));
  EXPECT_NEAR(lhs, rhs, 1e-3f * m_ * n_);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorAlgebraProperty,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 8),
                       ::testing::Values<int64_t>(2, 7, 16),
                       ::testing::Values<uint64_t>(1, 99)));

// ---------------------------------------------------------------------------
// Softmax numerical stability, on every registered kernel backend
// ---------------------------------------------------------------------------

// Runs `body` once per backend in kernels::AllKernels() whose supported()
// predicate passes, with that backend forced for the duration.
void ForEachSupportedBackend(
    const std::function<void(const char* name)>& body) {
  for (const kernels::KernelSet* ks : kernels::AllKernels()) {
    if (!ks->supported()) continue;
    ScopedKernelBackend scope(ks == &kernels::Avx2()
                                  ? kernels::Backend::kAvx2
                                  : kernels::Backend::kReference);
    body(ks->name);
  }
}

// Every row of a softmax result must be finite, non-negative and sum to 1 —
// even when the logits would overflow a naive exp.
void ExpectValidDistributionRows(const Tensor& sm, const char* backend) {
  const int64_t rows = sm.shape()[0], cols = sm.shape()[1];
  const float* p = sm.data();
  for (int64_t i = 0; i < rows; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      const float v = p[i * cols + j];
      ASSERT_TRUE(std::isfinite(v))
          << backend << ": row " << i << " col " << j << " = " << v;
      ASSERT_GE(v, 0.0f) << backend << ": row " << i << " col " << j;
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f) << backend << ": row " << i;
  }
}

class SoftmaxStabilityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoftmaxStabilityProperty, LargeMagnitudeLogitsStayFinite) {
  Rng rng(GetParam());
  // Magnitudes up to ~1e4: exp would overflow/underflow without the
  // max-subtraction; cols=17 leaves a vector tail lane on SIMD backends.
  Tensor big = RandomUniform({6, 17}, 2000.0f, 10000.0f, &rng);
  Tensor small = RandomUniform({6, 17}, -10000.0f, -2000.0f, &rng);
  Tensor mixed = RandomGaussian({6, 17}, 0.0f, 3000.0f, &rng);
  ForEachSupportedBackend([&](const char* name) {
    ExpectValidDistributionRows(Softmax(big, -1), name);
    ExpectValidDistributionRows(Softmax(small, -1), name);
    ExpectValidDistributionRows(Softmax(mixed, -1), name);
  });
}

TEST_P(SoftmaxStabilityProperty, EqualLogitsGiveUniform) {
  Rng rng(GetParam());
  const float level = static_cast<float>(rng.Uniform(-5000.0, 5000.0));
  for (int64_t cols : {1, 8, 13}) {
    Tensor a = Tensor::Full({4, cols}, level);
    ForEachSupportedBackend([&](const char* name) {
      Tensor sm = Softmax(a, -1);
      ExpectValidDistributionRows(sm, name);
      const float* p = sm.data();
      for (int64_t i = 0; i < sm.numel(); ++i) {
        EXPECT_NEAR(p[i], 1.0f / static_cast<float>(cols), 1e-5f)
            << name << " cols=" << cols;
      }
    });
  }
}

TEST_P(SoftmaxStabilityProperty, NegInfLogitsGetZeroMass) {
  Rng rng(GetParam());
  // -inf marks masked-out entries (the attention-mask convention). Rows
  // keep at least one finite logit; all--inf rows are undefined (0/0) on
  // every backend, so they are not part of the contract.
  Tensor a = RandomGaussian({5, 12}, 0.0f, 2.0f, &rng);
  const float ninf = -std::numeric_limits<float>::infinity();
  float* pa = a.data();
  std::vector<int64_t> masked;
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 12; ++j) {
      if (j != i && rng.Bernoulli(0.4)) {  // column i stays finite
        pa[i * 12 + j] = ninf;
        masked.push_back(i * 12 + j);
      }
    }
  }
  ForEachSupportedBackend([&](const char* name) {
    Tensor sm = Softmax(a, -1);
    ExpectValidDistributionRows(sm, name);
    const float* p = sm.data();
    for (int64_t idx : masked) {
      EXPECT_EQ(p[idx], 0.0f) << name << ": flat index " << idx;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxStabilityProperty,
                         ::testing::Values<uint64_t>(7, 21, 1234));

// ---------------------------------------------------------------------------
// Autograd: gradcheck across composite expressions and seeds
// ---------------------------------------------------------------------------

class CompositeGradProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompositeGradProperty, DeepCompositeExpression) {
  Rng rng(GetParam());
  auto a = ag::MakeVariable(RandomUniform({3, 4}, 0.2f, 1.0f, &rng), true);
  auto b = ag::MakeVariable(RandomUniform({4, 3}, 0.2f, 1.0f, &rng), true);
  EXPECT_TRUE(ag::GradCheck(
      [](const std::vector<ag::VarPtr>& in) {
        auto h = ag::Tanh(ag::MatMul(in[0], in[1]));       // [3,3]
        auto s = ag::Softmax(ag::MatMul(h, h), 1);         // [3,3]
        auto m = ag::Mean(ag::Mul(s, ag::Exp(h)), 0);      // [3]
        return ag::SumAll(ag::Sqrt(ag::AddScalar(ag::Square(m), 0.1f)));
      },
      {a, b}));
}

TEST_P(CompositeGradProperty, CombinedLossRandomInputs) {
  Rng rng(GetParam() + 1000);
  // Scores spread wide enough that no pairwise hinge sits within the
  // finite-difference step of its kink (ReLU is non-differentiable there).
  auto scores = ag::MakeVariable(RandomGaussian({7}, 0, 0.5f, &rng), true);
  Tensor labels = RandomGaussian({7}, 0, 0.02f, &rng);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>& in) {
        return core::CombinedLoss(in[0], labels, 0.2f);
      },
      {scores}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeGradProperty,
                         ::testing::Values<uint64_t>(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Graph invariants across random graphs
// ---------------------------------------------------------------------------

class RandomGraphProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, double, uint64_t>> {
 protected:
  graph::RelationTensor MakeRandom() {
    auto [n, density, seed] = GetParam();
    Rng rng(seed);
    graph::RelationTensor rel(n, 4);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(density)) {
          rel.AddRelation(i, j, rng.UniformInt(4)).Abort();
        }
      }
    }
    return rel;
  }
};

TEST_P(RandomGraphProperty, NormalizedAdjacencySpectralBound) {
  auto rel = MakeRandom();
  Tensor norm = graph::NormalizedAdjacency(rel);
  // Â is symmetric with eigenvalues in [-1, 1]; its Frobenius-bounded power
  // iteration must not blow up. Ten multiplications of a unit vector stay
  // bounded by 1 + eps.
  const int64_t n = norm.dim(0);
  Tensor v = Tensor::Full({n, 1}, 1.0f / std::sqrt(static_cast<float>(n)));
  for (int iter = 0; iter < 10; ++iter) v = MatMul(norm, v);
  EXPECT_LE(Norm(v), 1.0f + 1e-4f);
}

TEST_P(RandomGraphProperty, EdgeWeightGradientMatchesEdgeCount) {
  // Backpropagating an all-ones gradient through RelationEdgeWeights gives
  // db = 2 * num_edges (each undirected edge contributes two cells).
  auto rel = MakeRandom();
  auto w = ag::MakeVariable(Tensor::Ones({4}), true);
  auto b = ag::MakeVariable(Tensor::Zeros({1}), true);
  auto s = graph::RelationEdgeWeights(rel, w, b);
  ag::Backward(ag::SumAll(s));
  ASSERT_TRUE(b->grad.defined());
  EXPECT_NEAR(b->grad.item(), 2.0f * rel.num_edges(), 1e-3);
}

TEST_P(RandomGraphProperty, FilterTypesPartitionsEdges) {
  auto rel = MakeRandom();
  // Types {0,1} and {2,3} partition every edge's type set; each edge must
  // survive in at least one half.
  auto low = rel.FilterTypes(0, 2);
  auto high = rel.FilterTypes(2, 4);
  EXPECT_GE(low.num_edges() + high.num_edges(), rel.num_edges());
  for (const auto& e : rel.EdgeList()) {
    EXPECT_TRUE(low.HasEdge(e.i, e.j) || high.HasEdge(e.i, e.j));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, RandomGraphProperty,
    ::testing::Combine(::testing::Values<int64_t>(5, 12, 30),
                       ::testing::Values(0.1, 0.4),
                       ::testing::Values<uint64_t>(3, 17)));

// ---------------------------------------------------------------------------
// Ranking-metric invariants
// ---------------------------------------------------------------------------

class RankingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RankingProperty, MrrBoundsAndMonotonicity) {
  Rng rng(GetParam());
  const int64_t n = 20;
  Tensor labels = RandomGaussian({n}, 0, 0.02f, &rng);
  Tensor scores = RandomGaussian({n}, 0, 1.0f, &rng);
  const double rr = rank::ReciprocalRankTop1(scores, labels);
  EXPECT_GE(rr, 1.0 / n);
  EXPECT_LE(rr, 1.0);
  // Perfect scores (== labels) give rr = 1.
  EXPECT_DOUBLE_EQ(rank::ReciprocalRankTop1(labels, labels), 1.0);
}

TEST_P(RankingProperty, TopKReturnDecreasesWithKForPerfectRanking) {
  Rng rng(GetParam() + 7);
  Tensor labels = RandomGaussian({20}, 0, 0.02f, &rng);
  // With scores == labels the top-k mean return is non-increasing in k.
  double prev = rank::TopKReturn(labels, labels, 1);
  for (int64_t k = 2; k <= 10; ++k) {
    const double cur = rank::TopKReturn(labels, labels, k);
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST_P(RankingProperty, PairwiseLossZeroIffNoInversionsOnDistinctLabels) {
  Rng rng(GetParam() + 13);
  Tensor labels = RandomGaussian({8}, 0, 1.0f, &rng);
  // Scores equal to a monotone transform of labels: no inversions.
  Tensor mono = Map(labels, [](float v) { return std::tanh(v) * 3.0f; });
  auto loss = core::PairwiseRankingLoss(ag::Constant(mono), labels);
  EXPECT_NEAR(loss->value.item(), 0.0f, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankingProperty,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace rtgcn
