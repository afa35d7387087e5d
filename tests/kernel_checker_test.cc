// Kernel-equivalence sweeps: every registered backend vs the scalar
// reference, across shapes chosen to hit vector-width tails, odd sizes,
// single rows/columns, grain boundaries and broadcast edges, plus the
// temporal-block and θ-lift kernels compared byte for byte. See
// kernel_checker.h for the comparison contract.
#include "kernel_checker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "autograd/ops.h"
#include "graph/sparse.h"
#include "nn/temporal_conv.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rtgcn {
namespace {

std::string ShapeStr(const Shape& s) {
  std::string out = "[";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(s[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// MatMul / BatchMatMul
// ---------------------------------------------------------------------------

// m/k/n chosen to cover: degenerate 1x1, sub-vector sizes, the 8- and
// 16-lane j-block boundaries +/-1 (tail lanes), the 4-row panel boundary
// +/-1, and one cache-blocked size. Odd everything on purpose.
const std::vector<std::vector<int64_t>> kMatMulShapes = {
    {1, 1, 1},    {3, 5, 2},     {5, 17, 9},    {4, 8, 16},
    {9, 31, 33},  {17, 1, 63},   {8, 16, 24},   {33, 29, 65},
    {65, 63, 127}, {128, 100, 96},
};

TEST(KernelChecker, MatMulShapeSweep) {
  KernelChecker checker(101);
  // Long k accumulations under FMA contraction need a looser rtol than
  // elementwise ops.
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  for (const auto& mkn : kMatMulShapes) {
    const int64_t m = mkn[0], k = mkn[1], n = mkn[2];
    Tensor a = checker.Gaussian({m, k});
    Tensor b = checker.Gaussian({k, n});
    checker.Check("MatMul " + ShapeStr({m, k}) + "x" + ShapeStr({k, n}),
                  [&] { return MatMul(a, b); });
  }
}

TEST(KernelChecker, MatMulWithZeros) {
  // Heavily zeroed inputs, as in an adjacency row, must still agree.
  KernelChecker checker(102);
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  Tensor a = checker.Gaussian({13, 21});
  Tensor b = checker.Gaussian({21, 19});
  float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); i += 2) pa[i] = 0.0f;
  checker.Check("MatMul zero-heavy", [&] { return MatMul(a, b); });
}

// A zero a[i,p] times an inf or NaN b[p,j] is NaN on every backend; no
// backend may skip the zero and hide the NaN from the finite checks.
TEST(KernelChecker, MatMulZeroTimesNonFiniteIsNan) {
  const Tensor a({2, 2}, {0.0f, 1.0f, 2.0f, 0.0f});
  const Tensor b({2, 2}, {std::numeric_limits<float>::infinity(), 1.0f,
                          std::nanf(""), 2.0f});
  for (const kernels::KernelSet* ks : kernels::AllKernels()) {
    if (!ks->supported()) continue;
    ScopedKernelBackend scope(ks == &kernels::Avx2()
                                  ? kernels::Backend::kAvx2
                                  : kernels::Backend::kReference);
    const Tensor c = MatMul(a, b);
    const float* pc = c.data();
    EXPECT_TRUE(std::isnan(pc[0])) << ks->name << ": 0*inf + 1*nan";
    EXPECT_EQ(pc[1], 2.0f) << ks->name;
    EXPECT_TRUE(std::isnan(pc[2])) << ks->name << ": 2*inf + 0*nan";
    EXPECT_EQ(pc[3], 2.0f) << ks->name;
  }
}

// Narrow column counts run the avx2 kernel's 4-wide and scalar tails.
// Every element must equal the ascending-p single-rounding FMA chain from
// zero bit for bit, whatever the row panel (m) and tail (n) it lands in.
TEST(KernelChecker, MatMulNarrowColumnsMatchFmaChain) {
  if (!kernels::Avx2().supported()) {
    GTEST_SKIP() << "AVX2+FMA not supported on this CPU/build";
  }
  ScopedKernelBackend scope(kernels::Backend::kAvx2);
  Rng rng(112);
  for (int64_t m : {1, 3, 4, 5, 9}) {
    for (int64_t k : {1, 4, 16, 33}) {
      for (int64_t n : {1, 2, 3, 4, 5, 6, 7, 9, 12, 15, 20}) {
        const Tensor a = RandomGaussian({m, k}, 0, 1, &rng);
        const Tensor b = RandomGaussian({k, n}, 0, 1, &rng);
        const Tensor c = MatMul(a, b);
        std::vector<float> expected(static_cast<size_t>(m * n));
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p) {
              acc = std::fma(a.data()[i * k + p], b.data()[p * n + j], acc);
            }
            expected[static_cast<size_t>(i * n + j)] = acc;
          }
        }
        EXPECT_EQ(std::memcmp(expected.data(), c.data(),
                              sizeof(float) * expected.size()),
                  0)
            << "MatMul " << ShapeStr({m, k}) << "x" << ShapeStr({k, n});
      }
    }
  }
}

TEST(KernelChecker, BatchMatMulPerBatchAndSharedB) {
  KernelChecker checker(103);
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  for (const auto& mkn : {std::vector<int64_t>{3, 5, 7},
                          std::vector<int64_t>{9, 17, 33}}) {
    const int64_t m = mkn[0], k = mkn[1], n = mkn[2];
    Tensor a = checker.Gaussian({4, m, k});
    Tensor b3 = checker.Gaussian({4, k, n});
    Tensor b2 = checker.Gaussian({k, n});
    checker.Check("BatchMatMul per-batch " + ShapeStr({4, m, k}),
                  [&] { return BatchMatMul(a, b3); });
    checker.Check("BatchMatMul shared-B " + ShapeStr({4, m, k}),
                  [&] { return BatchMatMul(a, b2); });
  }
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

TEST(KernelChecker, SoftmaxColumnSweep) {
  KernelChecker checker(104);
  // The AVX2 backend uses a polynomial exp; agreement is approximate.
  checker.set_rtol(2e-5f).set_atol(1e-6f);
  for (int64_t cols : {1, 2, 7, 8, 9, 16, 17, 33, 100}) {
    Tensor a = checker.Gaussian({5, cols}, 0.0f, 3.0f);
    checker.Check("Softmax cols=" + std::to_string(cols),
                  [&] { return Softmax(a, -1); });
  }
}

TEST(KernelChecker, SoftmaxLargeMagnitudeRows) {
  KernelChecker checker(105);
  checker.set_rtol(2e-5f).set_atol(1e-6f);
  // Entries far outside exp()'s naive range; the max-subtraction must keep
  // every backend finite and in agreement.
  Tensor a = checker.Uniform({7, 23}, 500.0f, 1000.0f);
  checker.Check("Softmax large-magnitude", [&] { return Softmax(a, -1); });
  Tensor b = checker.Uniform({7, 23}, -1000.0f, -500.0f);
  checker.Check("Softmax large-negative", [&] { return Softmax(b, -1); });
}

TEST(KernelChecker, SoftmaxNonLastAxisUsesComposedPath) {
  KernelChecker checker(106);
  checker.set_rtol(2e-5f).set_atol(1e-6f);
  Tensor a = checker.Gaussian({9, 17}, 0.0f, 2.0f);
  checker.Check("Softmax axis=0", [&] { return Softmax(a, 0); });
}

// ---------------------------------------------------------------------------
// Elementwise: sizes straddling the vector width and the ParallelFor grain
// ---------------------------------------------------------------------------

// 1..17 covers every AVX lane-tail residue; 8191/8192/8193 straddle
// kElemGrain so chunk-start alignment inside the kernels is exercised.
const std::vector<int64_t> kElemSizes = {1,  2,  7,    8,    9,
                                         15, 17, 8191, 8192, 8193};

TEST(KernelChecker, BinaryElementwiseSizeSweep) {
  KernelChecker checker(107);
  for (int64_t size : kElemSizes) {
    Tensor a = checker.Gaussian({size});
    Tensor b = checker.Gaussian({size});
    // Keep divisors away from zero so Div stays well-conditioned.
    float* pb = b.data();
    for (int64_t i = 0; i < size; ++i) {
      if (std::fabs(pb[i]) < 0.1f) pb[i] = pb[i] < 0 ? -0.5f : 0.5f;
    }
    const std::string tag = " n=" + std::to_string(size);
    checker.Check("Add" + tag, [&] { return Add(a, b); });
    checker.Check("Sub" + tag, [&] { return Sub(a, b); });
    checker.Check("Mul" + tag, [&] { return Mul(a, b); });
    checker.Check("Div" + tag, [&] { return Div(a, b); });
  }
}

TEST(KernelChecker, ScalarAndUnarySizeSweep) {
  KernelChecker checker(108);
  for (int64_t size : kElemSizes) {
    Tensor a = checker.Gaussian({size});
    const std::string tag = " n=" + std::to_string(size);
    checker.Check("AddScalar" + tag, [&] { return AddScalar(a, 1.25f); });
    checker.Check("MulScalar" + tag, [&] { return MulScalar(a, -0.75f); });
    checker.Check("Relu" + tag, [&] { return Relu(a); });
    checker.Check("LeakyRelu" + tag, [&] { return LeakyRelu(a, 0.2f); });
  }
}

TEST(KernelChecker, BroadcastEdges) {
  KernelChecker checker(109);
  // Scalar-operand fast paths (0-d and 1-element tensors on either side)
  // plus a genuine broadcast that must take the generic strided path.
  Tensor a = checker.Gaussian({6, 9});
  Tensor s = Tensor::Scalar(2.5f);
  Tensor row = checker.Gaussian({1, 9});
  Tensor col = checker.Gaussian({6, 1});
  checker.Check("Add tensor+scalar", [&] { return Add(a, s); });
  checker.Check("Add scalar+tensor", [&] { return Add(s, a); });
  checker.Check("Sub tensor-scalar", [&] { return Sub(a, s); });
  checker.Check("Mul scalar*tensor", [&] { return Mul(s, a); });
  checker.Check("Add row-broadcast", [&] { return Add(a, row); });
  checker.Check("Add col-broadcast", [&] { return Add(a, col); });
}

TEST(KernelChecker, ReluSignedZeroAndSpecials) {
  KernelChecker checker(110);
  Tensor a({9}, {0.0f, -0.0f, 1.5f, -1.5f, 1e30f, -1e30f, 1e-38f, -1e-38f,
                 3.0f});
  checker.Check("Relu specials", [&] { return Relu(a); });
  checker.Check("LeakyRelu specials", [&] { return LeakyRelu(a, 0.1f); });
}

// ---------------------------------------------------------------------------
// Transpose
// ---------------------------------------------------------------------------

TEST(KernelChecker, TransposeShapeSweep) {
  KernelChecker checker(111);
  // Exact op: results must match the reference bit-for-bit (rtol/atol 0).
  checker.set_rtol(0.0f).set_atol(0.0f);
  for (const auto& mn :
       {std::vector<int64_t>{1, 1}, std::vector<int64_t>{1, 17},
        std::vector<int64_t>{17, 1}, std::vector<int64_t>{7, 5},
        std::vector<int64_t>{8, 8}, std::vector<int64_t>{9, 23},
        std::vector<int64_t>{16, 40}, std::vector<int64_t>{33, 65},
        std::vector<int64_t>{100, 64}}) {
    Tensor a = checker.Gaussian({mn[0], mn[1]});
    checker.Check("Transpose " + ShapeStr({mn[0], mn[1]}),
                  [&] { return Transpose(a); });
  }
}

// ---------------------------------------------------------------------------
// Temporal conv block
// ---------------------------------------------------------------------------

// The block's value, input gradient and every parameter gradient, and the
// gradient-free value, under the active backend.
std::vector<Tensor> TemporalBlockOutputs(const nn::TemporalConvBlock& block,
                                         const Tensor& x,
                                         const Tensor& cotangent) {
  auto xv = ag::MakeVariable(x.Clone(), /*requires_grad=*/true);
  const auto params = block.Parameters();
  for (const auto& p : params) p->ZeroGrad();
  Rng masks(3);
  ag::VarPtr y = block.Forward(xv, &masks);
  ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cotangent))));
  std::vector<Tensor> out{y->value, xv->grad};
  for (const auto& p : params) out.push_back(p->grad);
  ag::NoGradGuard no_grad;
  Rng serve_masks(3);
  out.push_back(block.Forward(ag::Constant(x), &serve_masks)->value);
  return out;
}

// The avx2 block kernels equal the reference kernels byte for byte:
// 4-node groups with tails (N not a multiple of 4), 16 channels (two
// registers), in != out, channel counts off the 8-lane grid (5, 9, 20),
// identity and projected residuals, dropout masks, and a NaN and an inf
// input. NaNs match as NaNs: the compiler may commute the operands of a
// scalar add, which picks which NaN payload propagates.
TEST(KernelChecker, TemporalBlockBitIdenticalToReference) {
  struct Case {
    int64_t in, out, kernel, dilation, stride, t_len, n;
    float dropout;
    bool specials;
  };
  const Case cases[] = {{16, 16, 3, 1, 4, 15, 37, 0.1f, false},
                        {3, 5, 3, 2, 2, 15, 9, 0.1f, false},
                        {12, 12, 3, 2, 1, 6, 6, 0.0f, false},
                        {5, 20, 2, 1, 2, 9, 13, 0.1f, false},
                        {9, 9, 1, 1, 1, 4, 5, 0.0f, true},
                        {16, 16, 3, 1, 4, 15, 11, 0.0f, true}};
  Rng rng(120);
  for (const Case& c : cases) {
    nn::TemporalConvBlock block(c.in, c.out, c.kernel, &rng, c.dilation,
                                c.stride, c.dropout);
    for (const auto& p : block.Parameters()) {
      if (p->value.ndim() == 1) {
        p->value = RandomGaussian(p->shape(), 0, 0.5f, &rng);  // biases
      }
    }
    Tensor x = RandomGaussian({c.t_len, c.n, c.in}, 0, 1, &rng);
    if (c.specials) {
      x.data()[x.numel() - 1] = std::numeric_limits<float>::quiet_NaN();
      x.data()[x.numel() - c.in - 1] = std::numeric_limits<float>::infinity();
    }
    const Tensor cotangent = RandomUniform(
        {block.out_length(c.t_len), c.n, c.out}, -1.0f, 1.0f, &rng);
    const std::string what = std::to_string(c.in) + "->" +
                             std::to_string(c.out) + " k=" +
                             std::to_string(c.kernel) + " s=" +
                             std::to_string(c.stride) + " N=" +
                             std::to_string(c.n);
    std::vector<Tensor> expected;
    {
      ScopedKernelBackend scope(kernels::Backend::kReference);
      expected = TemporalBlockOutputs(block, x, cotangent);
    }
    for (const kernels::KernelSet* ks : kernels::AllKernels()) {
      if (ks == &kernels::Reference() || !ks->supported()) continue;
      ScopedKernelBackend scope(kernels::Backend::kAvx2);
      const std::vector<Tensor> actual =
          TemporalBlockOutputs(block, x, cotangent);
      ASSERT_EQ(expected.size(), actual.size()) << what;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i].shape(), actual[i].shape()) << what;
        int64_t mismatches = 0;
        for (int64_t e = 0; e < expected[i].numel(); ++e) {
          const float a = expected[i].data()[e];
          const float b = actual[i].data()[e];
          if (std::memcmp(&a, &b, sizeof(float)) != 0 &&
              !(std::isnan(a) && std::isnan(b))) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << what << " [" << ks->name << "]: output "
                                 << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// θ-lift of the relational lanes
// ---------------------------------------------------------------------------

// graph::SparseTimeSensitiveConv's value and every gradient (w, b, Θ, x),
// and the gradient-free value, under the active backend.
std::vector<Tensor> RelationalConvOutputs(const graph::CsrPtr& g,
                                          const std::vector<Tensor>& in,
                                          const Tensor& cotangent) {
  std::vector<ag::VarPtr> vars;
  for (const Tensor& t : in) vars.push_back(ag::MakeVariable(t.Clone(), true));
  ag::VarPtr h =
      graph::SparseTimeSensitiveConv(g, vars[0], vars[1], vars[2], vars[3]);
  ag::Backward(ag::SumAll(ag::Mul(h, ag::Constant(cotangent))));
  std::vector<Tensor> out{h->value};
  for (const auto& v : vars) out.push_back(v->grad);
  ag::NoGradGuard no_grad;
  out.push_back(graph::SparseTimeSensitiveConv(
                    g, ag::Constant(in[0]), ag::Constant(in[1]),
                    ag::Constant(in[2]), ag::Constant(in[3]))
                    ->value);
  return out;
}

// The avx2 lift and lift-back kernels equal the reference kernels byte for
// byte, through the op: D = 4 (the hot shape when T is 9..16) and off it,
// T on both sides of the 8-lane block, F with lane tails (5, 20) and the
// model's 16, and a NaN and an inf input. NaNs match as NaNs.
TEST(KernelChecker, RelationalLiftBitIdenticalToReference) {
  Rng rng(130);
  graph::RelationTensor rel(29, 3);
  for (int e = 0; e < 90; ++e) {
    const int64_t i = static_cast<int64_t>(rng.UniformInt(28));
    const int64_t j = static_cast<int64_t>(rng.UniformInt(28));
    if (i != j) {
      rel.AddRelation(i, j, static_cast<int64_t>(rng.UniformInt(3))).Abort();
    }
  }
  const graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  struct Case {
    int64_t t_len, d, f;
    bool specials;
  };
  const Case cases[] = {{15, 4, 16, false}, {15, 4, 5, false},
                        {5, 4, 16, false},  {17, 4, 20, false},
                        {8, 16, 16, false}, {1, 1, 9, false},
                        {15, 6, 16, true},  {15, 4, 16, true}};
  for (const Case& c : cases) {
    std::vector<Tensor> in = {
        RandomGaussian({3}, 1.0f, 0.1f, &rng),
        RandomGaussian({1}, 0.0f, 0.1f, &rng),
        RandomGaussian({c.d, c.f}, 0.0f, 0.5f, &rng),
        RandomUniform({c.t_len, rel.num_stocks(), c.d}, -1.0f, 1.5f, &rng)};
    if (c.specials) {
      float* x = in[3].data();
      x[in[3].numel() - 1] = std::numeric_limits<float>::quiet_NaN();
      x[in[3].numel() / 2] = std::numeric_limits<float>::infinity();
    }
    const Tensor cotangent = RandomUniform(
        {c.t_len, rel.num_stocks(), c.f}, -1.0f, 1.0f, &rng);
    const std::string what = "T=" + std::to_string(c.t_len) + " D=" +
                             std::to_string(c.d) + " F=" +
                             std::to_string(c.f) +
                             (c.specials ? " NaN/inf" : "");
    std::vector<Tensor> expected;
    {
      ScopedKernelBackend scope(kernels::Backend::kReference);
      expected = RelationalConvOutputs(g, in, cotangent);
    }
    for (const kernels::KernelSet* ks : kernels::AllKernels()) {
      if (ks == &kernels::Reference() || !ks->supported()) continue;
      ScopedKernelBackend scope(kernels::Backend::kAvx2);
      const std::vector<Tensor> actual =
          RelationalConvOutputs(g, in, cotangent);
      ASSERT_EQ(expected.size(), actual.size()) << what;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i].shape(), actual[i].shape()) << what;
        int64_t mismatches = 0;
        for (int64_t e = 0; e < expected[i].numel(); ++e) {
          const float a = expected[i].data()[e];
          const float b = actual[i].data()[e];
          if (std::memcmp(&a, &b, sizeof(float)) != 0 &&
              !(std::isnan(a) && std::isnan(b))) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0) << what << " [" << ks->name << "]: output "
                                 << i;
      }
    }
  }
}

}  // namespace
}  // namespace rtgcn
