// Oracle tests for the fused autograd ops.
//
// ag::PairwiseRankingLoss, nn::TemporalConvBlock's fused op and
// graph::SparseTimeSensitiveConv replace chains of small ops. The chains
// are kept here, and only here, as the reference: the checker runs a
// fused op and its composed oracle on the same seeded inputs and the same
// output cotangent, then compares the forward value and every input
// gradient. The fused ops sum in a different order than the chains, so
// the comparison is |fused - oracle| <= rtol * max|oracle| per tensor (a
// norm-relative bound: a gradient entry that cancels to ~0 is not held to
// its own magnitude). Each op also passes ag::GradCheck and is
// bit-identical at 1, 2, 4 and 8 threads, and the loss is bit-identical
// under every kernel backend (the block's and the θ-lift's kernels are
// compared byte for byte in kernel_checker_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd_oracle.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/sparse.h"
#include "kernel_checker.h"
#include "nn/temporal_conv.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

// ---------------------------------------------------------------------------
// Oracles: the compositions the fused ops replaced
// ---------------------------------------------------------------------------

// Pairwise hinge built from [N, N] broadcasts.
ag::VarPtr ComposedPairwiseRankingLoss(const ag::VarPtr& scores,
                                       const Tensor& labels) {
  const int64_t n = scores->numel();
  ag::VarPtr col = ag::Reshape(scores, {n, 1});
  ag::VarPtr row = ag::Reshape(scores, {1, n});
  ag::VarPtr pred_diff = ag::Sub(col, row);
  Tensor label_diff = Sub(BroadcastTo(labels.Reshape({n, 1}), {n, n}),
                          BroadcastTo(labels.Reshape({1, n}), {n, n}));
  ag::VarPtr product = ag::Mul(pred_diff, ag::Constant(label_diff));
  return ag::MeanAll(ag::Relu(ag::Neg(product)));
}

// Causal conv built from pad -> concat -> per-tap (slice, matmul, add) ->
// bias -> downsample, with the same weight-norm composition as the module.
struct ConvParams {
  ag::VarPtr v;     // [k, in, out]
  ag::VarPtr gain;  // [1, 1, out], null without weight norm
  ag::VarPtr bias;  // [out]
};

ag::VarPtr ComposedCausalConv(const ag::VarPtr& x, const ConvParams& p,
                              int64_t dilation, int64_t stride) {
  const int64_t t_len = x->value.dim(0);
  const int64_t n = x->value.dim(1);
  const int64_t k = p.v->value.dim(0);
  const int64_t in = p.v->value.dim(1);
  const int64_t out = p.v->value.dim(2);
  ag::VarPtr w = p.v;
  if (p.gain) {
    ag::VarPtr norm = ag::Sqrt(ag::AddScalar(
        ag::Sum(ag::Sum(ag::Square(p.v), 0, true), 1, true), 1e-8f));
    w = ag::Mul(ag::Div(p.v, norm), p.gain);
  }
  const int64_t pad = (k - 1) * dilation;
  ag::VarPtr xp = x;
  if (pad > 0) {
    xp = ag::ConcatOp({ag::Constant(Tensor::Zeros({pad, n, in})), x}, 0);
  }
  ag::VarPtr acc;
  for (int64_t i = 0; i < k; ++i) {
    ag::VarPtr xi = ag::SliceOp(xp, 0, i * dilation, i * dilation + t_len);
    ag::VarPtr yi = ag::MatMul(ag::Reshape(xi, {t_len * n, in}),
                               ag::Reshape(ag::SliceOp(w, 0, i, i + 1),
                                           {in, out}));
    acc = acc ? ag::Add(acc, yi) : yi;
  }
  ag::VarPtr y = ag::Reshape(ag::Add(acc, p.bias), {t_len, n, out});
  if (stride > 1) y = ag::Downsample(y, 0, stride, (t_len - 1) % stride);
  return y;
}

ConvParams ParamsOf(const nn::Module& m, const std::string& prefix = "") {
  ConvParams p;
  for (const auto& [name, var] : m.NamedParameters()) {
    if (name == prefix + "v") p.v = var;
    if (name == prefix + "gain") p.gain = var;
    if (name == prefix + "bias") p.bias = var;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

/// \brief Runs a fused op and its oracle on shared inputs and compares the
/// forward value and the gradients of every input.
///
/// `run` maps the inputs to an output Variable; the checker contracts it
/// with a fixed seeded cotangent, back-propagates, and returns the output
/// value followed by each input's gradient (zeros when none arrived).
class FusedOpChecker {
 public:
  using Fn = std::function<ag::VarPtr(const std::vector<ag::VarPtr>&)>;

  explicit FusedOpChecker(uint64_t seed = 42) : rng_(seed) {}

  Rng* rng() { return &rng_; }

  /// Forward value and input gradients of `fn`, for one cotangent.
  static std::vector<Tensor> Run(const Fn& fn,
                                 const std::vector<ag::VarPtr>& inputs,
                                 const Tensor& cotangent) {
    for (const auto& in : inputs) in->ZeroGrad();
    ag::VarPtr y = fn(inputs);
    ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cotangent))));
    std::vector<Tensor> out{y->value};
    for (const auto& in : inputs) {
      out.push_back(in->grad.defined() ? in->grad
                                       : Tensor::Zeros(in->shape()));
    }
    return out;
  }

  /// A seeded cotangent for `fn`'s output.
  Tensor Cotangent(const Fn& fn, const std::vector<ag::VarPtr>& inputs) {
    ag::NoGradGuard no_grad;
    return RandomUniform(fn(inputs)->shape(), 0.5f, 1.5f, &rng_);
  }

  /// Compares `fused` against `oracle` on `inputs`. `names` labels the
  /// input gradients in failure messages.
  void Check(const std::string& what, const Fn& fused, const Fn& oracle,
             const std::vector<ag::VarPtr>& inputs,
             const std::vector<std::string>& names) {
    ASSERT_EQ(inputs.size(), names.size()) << what;
    const Tensor cotangent = Cotangent(fused, inputs);
    const std::vector<Tensor> want = Run(oracle, inputs, cotangent);
    const std::vector<Tensor> got = Run(fused, inputs, cotangent);
    ExpectClose(want[0], got[0], kValueRtol, what + " forward");
    for (size_t i = 0; i < inputs.size(); ++i) {
      ExpectClose(want[i + 1], got[i + 1], kGradRtol, what + " d" + names[i]);
    }
  }

  /// |actual - expected| <= rtol * max|expected| for every element.
  static void ExpectClose(const Tensor& expected, const Tensor& actual,
                          float rtol, const std::string& context) {
    ASSERT_EQ(expected.shape(), actual.shape()) << context;
    float scale = 0;
    for (int64_t i = 0; i < expected.numel(); ++i) {
      scale = std::max(scale, std::fabs(expected.data()[i]));
    }
    const float bound = rtol * scale;
    int64_t mismatches = 0;
    for (int64_t i = 0; i < expected.numel(); ++i) {
      const float e = expected.data()[i];
      const float a = actual.data()[i];
      const float err = std::fabs(a - e);
      if (e == a || err <= bound) continue;
      if (++mismatches <= 8) {
        ADD_FAILURE() << context << ": element " << i << " expected " << e
                      << " got " << a << " (|diff| " << err << " > "
                      << bound << ")";
      }
    }
    EXPECT_EQ(mismatches, 0) << context;
  }

  /// Runs `fn` at 1 thread and at 2, 4 and 8, expecting byte-identical
  /// outputs and gradients.
  void CheckThreadInvariant(const std::string& what, const Fn& fn,
                            const std::vector<ag::VarPtr>& inputs) {
    const Tensor cotangent = Cotangent(fn, inputs);
    SetNumThreads(1);
    const std::vector<Tensor> ref = Run(fn, inputs, cotangent);
    for (int threads : {2, 4, 8}) {
      SetNumThreads(threads);
      const std::vector<Tensor> got = Run(fn, inputs, cotangent);
      for (size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(ref[i].shape(), got[i].shape()) << what;
        EXPECT_EQ(std::memcmp(ref[i].data(), got[i].data(),
                              sizeof(float) * ref[i].numel()),
                  0)
            << what << " output " << i << " differs at threads=" << threads;
      }
    }
    SetNumThreads(0);
  }

 private:
  static constexpr float kValueRtol = 1e-6f;
  static constexpr float kGradRtol = 1e-5f;

  Rng rng_;
};

// ---------------------------------------------------------------------------
// Pairwise ranking loss
// ---------------------------------------------------------------------------

void CheckLoss(FusedOpChecker* checker, const std::string& what,
               const Tensor& scores, const Tensor& labels) {
  auto s = ag::MakeVariable(scores.Clone(), /*requires_grad=*/true);
  checker->Check(
      what,
      [&](const std::vector<ag::VarPtr>& in) {
        return ag::PairwiseRankingLoss(in[0], labels);
      },
      [&](const std::vector<ag::VarPtr>& in) {
        return ComposedPairwiseRankingLoss(in[0], labels);
      },
      {s}, {"scores"});
}

TEST(FusedPairwiseRankingLossTest, MatchesComposedOracle) {
  FusedOpChecker checker(1);
  for (int64_t n : {1, 2, 3, 17, 840}) {
    for (bool column : {false, true}) {
      const Shape shape = column ? Shape{n, 1} : Shape{n};
      const Tensor scores = RandomGaussian(shape, 0, 1, checker.rng());
      const Tensor labels = RandomGaussian(shape, 0, 0.02f, checker.rng());
      CheckLoss(&checker,
                "N=" + std::to_string(n) + (column ? " [N,1]" : " [N]"),
                scores, labels);
    }
  }
}

TEST(FusedPairwiseRankingLossTest, TiesMatchOracleAndGiveNoGradient) {
  FusedOpChecker checker(2);
  const Tensor scores({6}, {0.5f, 0.5f, -1.0f, 2.0f, 2.0f, 0.5f});
  const Tensor labels({6}, {0.01f, 0.03f, 0.03f, -0.02f, 0.01f, 0.01f});
  CheckLoss(&checker, "mixed ties", scores, labels);

  // All scores tied, or all labels tied: every product is ±0, no pair is
  // active, so both the loss and the gradient are exactly zero.
  for (bool tie_scores : {true, false}) {
    auto s = ag::MakeVariable(
        tie_scores ? Tensor::Full({5}, 0.7f)
                   : RandomGaussian({5}, 0, 1, checker.rng()),
        /*requires_grad=*/true);
    const Tensor y = tie_scores ? RandomGaussian({5}, 0, 0.02f, checker.rng())
                                : Tensor::Full({5}, 0.01f);
    ag::VarPtr loss = ag::PairwiseRankingLoss(s, y);
    EXPECT_EQ(loss->value.item(), 0.0f);
    ag::Backward(loss);
    for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(s->grad.data()[i], 0.0f);
  }
}

TEST(FusedPairwiseRankingLossTest, GradCheck) {
  Rng rng(3);
  for (int64_t n : {2, 3, 17}) {
    // Scores spaced well beyond the finite-difference step, so no pair
    // crosses the hinge's kink inside the probe.
    std::vector<float> values(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      values[static_cast<size_t>(i)] =
          0.1f * static_cast<float>((i * 7) % n) + 0.01f * rng.Uniform();
    }
    auto s = ag::MakeVariable(Tensor({n}, values), /*requires_grad=*/true);
    const Tensor labels = RandomGaussian({n}, 0, 1, &rng);
    EXPECT_TRUE(ag::GradCheck(
        [&](const std::vector<ag::VarPtr>& in) {
          return ag::PairwiseRankingLoss(in[0], labels);
        },
        {s}))
        << "N=" << n;
  }
}

TEST(FusedPairwiseRankingLossTest, BitIdenticalAcrossThreadCounts) {
  FusedOpChecker checker(4);
  for (int64_t n : {17, 840}) {
    const Tensor labels = RandomGaussian({n}, 0, 0.02f, checker.rng());
    auto s = ag::MakeVariable(RandomGaussian({n}, 0, 1, checker.rng()),
                              /*requires_grad=*/true);
    checker.CheckThreadInvariant(
        "loss N=" + std::to_string(n),
        [&](const std::vector<ag::VarPtr>& in) {
          return ag::PairwiseRankingLoss(in[0], labels);
        },
        {s});
  }
}

TEST(FusedPairwiseRankingLossTest, NanScoreReachesTheLoss) {
  Tensor scores({3}, {0.1f, std::nanf(""), -0.2f});
  const Tensor labels({3}, {0.01f, 0.02f, 0.03f});
  EXPECT_TRUE(std::isnan(
      ag::PairwiseRankingLoss(ag::Constant(scores), labels)->value.item()));
}

// The loss value, the score gradient and the gradient-free forward of
// every supported kernel backend equal the reference backend's byte for
// byte: n on both sides of the 8-row vector block, tied scores, tied and
// ±0 labels, with and without a NaN score.
TEST(FusedPairwiseRankingLossTest,
     PairwiseRankingLossBitIdenticalAcrossBackends) {
  struct Outputs {
    float loss = 0;
    float loss_no_grad = 0;
    Tensor grad;
  };
  const auto run = [](const Tensor& scores, const Tensor& labels) {
    Outputs out;
    auto s = ag::MakeVariable(scores.Clone(), /*requires_grad=*/true);
    ag::VarPtr loss = ag::PairwiseRankingLoss(s, labels);
    out.loss = loss->value.item();
    ag::Backward(loss);
    out.grad = s->grad;
    out.loss_no_grad =
        ag::PairwiseRankingLoss(ag::Constant(scores), labels)->value.item();
    return out;
  };
  Rng rng(5);
  for (int64_t n : {1, 7, 8, 9, 15, 16, 17, 120, 840}) {
    for (bool with_nan : {false, true}) {
      Tensor scores = RandomGaussian({n}, 0, 1, &rng);
      Tensor labels = RandomGaussian({n}, 0, 0.02f, &rng);
      float* ps = scores.data();
      float* py = labels.data();
      for (int64_t i = 3; i < n; i += 5) ps[i] = ps[i - 3];  // tied scores
      for (int64_t i = 2; i < n; i += 4) py[i] = py[i - 1];  // tied labels
      for (int64_t i = 0; i < n; i += 3) py[i] = i % 2 == 0 ? 0.0f : -0.0f;
      if (with_nan) ps[n / 2] = std::nanf("");
      const std::string what = "N=" + std::to_string(n) +
                               (with_nan ? " with NaN" : "");
      Outputs expected;
      {
        ScopedKernelBackend scope(kernels::Backend::kReference);
        expected = run(scores, labels);
      }
      EXPECT_EQ(std::isnan(expected.loss), with_nan) << what;
      for (const kernels::KernelSet* ks : kernels::AllKernels()) {
        if (ks == &kernels::Reference() || !ks->supported()) continue;
        ScopedKernelBackend scope(ks == &kernels::Avx2()
                                      ? kernels::Backend::kAvx2
                                      : kernels::Backend::kReference);
        const Outputs actual = run(scores, labels);
        const std::string ctx = what + " [" + ks->name + "]";
        EXPECT_EQ(std::memcmp(&expected.loss, &actual.loss, sizeof(float)), 0)
            << ctx << ": loss " << expected.loss << " vs " << actual.loss;
        EXPECT_EQ(std::memcmp(&expected.loss_no_grad, &actual.loss_no_grad,
                              sizeof(float)),
                  0)
            << ctx << ": gradient-free loss";
        ASSERT_EQ(expected.grad.numel(), actual.grad.numel()) << ctx;
        EXPECT_EQ(std::memcmp(expected.grad.data(), actual.grad.data(),
                              sizeof(float) * n),
                  0)
            << ctx << ": gradient";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Temporal conv block
// ---------------------------------------------------------------------------

struct BlockCase {
  int64_t kernel, dilation, stride, t_len;
  int64_t in = 3, out = 4;
  float dropout = 0.0f;

  std::string Name() const {
    return "k=" + std::to_string(kernel) + " d=" + std::to_string(dilation) +
           " s=" + std::to_string(stride) + " T=" + std::to_string(t_len) +
           " " + std::to_string(in) + "->" + std::to_string(out) +
           " p=" + std::to_string(dropout);
  }
};

// The k × d × s × T grid with `out` channels, from out - 1 input channels
// and from out. Both convs are weight-normalized; the residual is a plain
// 1×1 projection except at in = out and stride 1, where it is the identity.
std::vector<BlockCase> AllBlockCases(int64_t out) {
  std::vector<BlockCase> cases;
  for (int64_t k : {1, 3}) {
    for (int64_t d : {1, 2}) {
      for (int64_t s : {1, 2, 4}) {
        for (int64_t t : {1, 4, 15}) {
          for (int64_t in : {out - 1, out}) {
            cases.push_back({k, d, s, t, in, out});
          }
        }
      }
    }
  }
  return cases;
}

nn::TemporalConvBlock MakeBlock(const BlockCase& c, Rng* rng) {
  return nn::TemporalConvBlock(c.in, c.out, c.kernel, rng, c.dilation,
                               c.stride, c.dropout);
}

// The block's parameters with a nonzero bias in each conv, so every dbias
// and bias add is exercised.
std::vector<std::pair<std::string, ag::VarPtr>> BlockParams(
    const nn::TemporalConvBlock& block, Rng* rng) {
  std::vector<std::pair<std::string, ag::VarPtr>> params =
      block.NamedParameters();
  for (const auto& [name, var] : params) {
    if (name.ends_with("bias")) {
      var->value = RandomGaussian(var->shape(), 0, 0.5f, rng);
    }
  }
  return params;
}

// The block composed from the oracle convs, ag::Relu and ag::Dropout, with
// its residual projected at every time and then downsampled.
ag::VarPtr ComposedBlock(const ag::VarPtr& x, const nn::TemporalConvBlock& b,
                         const BlockCase& c, Rng* rng) {
  const ConvParams c1 = ParamsOf(b, "m0.");
  const ConvParams c2 = ParamsOf(b, "m1.");
  const ConvParams res = ParamsOf(b, "m2.");
  ag::VarPtr h = ag::Relu(ComposedCausalConv(x, c1, 1, c.stride));
  h = ag::Dropout(h, c.dropout, b.training(), rng, /*spatial_axis=*/2);
  h = ag::Relu(ComposedCausalConv(h, c2, c.dilation, c.stride));
  h = ag::Dropout(h, c.dropout, b.training(), rng, /*spatial_axis=*/2);
  ag::VarPtr r = x;
  if (res.v) {
    r = ComposedCausalConv(x, res, 1, 1);
    const int64_t step = c.stride * c.stride;
    if (step > 1) r = ag::Downsample(r, 0, step, (c.t_len - 1) % step);
  }
  return ag::Relu(ag::Add(h, r));
}

// Inputs x and every parameter, with their names.
void BlockInputs(const ag::VarPtr& x,
                 const std::vector<std::pair<std::string, ag::VarPtr>>& params,
                 std::vector<ag::VarPtr>* inputs,
                 std::vector<std::string>* names) {
  *inputs = {x};
  *names = {"x"};
  for (const auto& [name, var] : params) {
    inputs->push_back(var);
    names->push_back(name);
  }
}

void CheckBlockAgainstOracle(FusedOpChecker* checker, const BlockCase& c,
                             int64_t stocks) {
  nn::TemporalConvBlock block = MakeBlock(c, checker->rng());
  const auto params = BlockParams(block, checker->rng());
  auto x = ag::MakeVariable(
      RandomGaussian({c.t_len, stocks, c.in}, 0, 1, checker->rng()),
      /*requires_grad=*/true);
  std::vector<ag::VarPtr> inputs;
  std::vector<std::string> names;
  BlockInputs(x, params, &inputs, &names);
  // Each run draws its dropout masks from a fresh Rng of one seed.
  constexpr uint64_t kMaskSeed = 77;
  checker->Check(
      c.Name(),
      [&](const std::vector<ag::VarPtr>& in) {
        Rng masks(kMaskSeed);
        return block.Forward(in[0], &masks);
      },
      [&](const std::vector<ag::VarPtr>& in) {
        Rng masks(kMaskSeed);
        return ComposedBlock(in[0], block, c, &masks);
      },
      inputs, names);
}

TEST(FusedTemporalBlockTest, MatchesComposedOracle) {
  FusedOpChecker checker(5);
  for (const BlockCase& c : AllBlockCases(/*out=*/4)) {
    CheckBlockAgainstOracle(&checker, c, /*stocks=*/5);
  }
}

// Dropout 0.1 in training mode: the fused op and the oracle draw conv1's
// channel masks, then conv2's, from the same Rng sequence.
TEST(FusedTemporalBlockTest, DropoutMatchesComposedOracle) {
  FusedOpChecker checker(6);
  const BlockCase cases[] = {{3, 1, 4, 15, 16, 16, 0.1f},
                             {3, 2, 2, 15, 3, 5, 0.1f},
                             {3, 1, 1, 4, 8, 8, 0.1f}};
  for (const BlockCase& c : cases) {
    CheckBlockAgainstOracle(&checker, c, /*stocks=*/9);
  }
}

TEST(FusedTemporalBlockTest, DropoutDrawsOneMaskPerConvInOrder) {
  Rng rng(7);
  const BlockCase c{3, 1, 4, 15, 16, 16, 0.1f};
  nn::TemporalConvBlock block = MakeBlock(c, &rng);
  auto x = ag::Constant(RandomGaussian({15, 4, 16}, 0, 1, &rng));
  Rng used(8), expected(8);
  block.Forward(x, &used);
  for (int i = 0; i < 2 * 16; ++i) expected.Bernoulli(0.1);
  EXPECT_EQ(used.Uniform(), expected.Uniform());
  // Outside training nothing is drawn.
  block.SetTraining(false);
  Rng idle(9), fresh(9);
  block.Forward(x, &idle);
  EXPECT_EQ(idle.Uniform(), fresh.Uniform());
}

// max_i |analytic_i - numeric_i| over v's entries, relative to the largest
// |analytic| (floored at 1e-4), the numeric gradient a central difference
// at step `eps`. A weight-normalized v's gradient is orthogonal to v, so
// some of its entries cancel to ~0, where the difference sees only a
// one-ulp change of the loss; measured against the tensor's scale, as
// MatchesComposedOracle's bound is, that rounding noise is ~1e-4.
float NormRelativeGradError(const std::function<ag::VarPtr()>& loss,
                            const ag::VarPtr& v, float eps) {
  v->ZeroGrad();
  ag::Backward(loss());
  const Tensor analytic = v->grad.Clone();
  float scale = 1e-4f;
  for (int64_t i = 0; i < analytic.numel(); ++i) {
    scale = std::max(scale, std::fabs(analytic.data()[i]));
  }
  float max_err = 0;
  float* p = v->value.data();
  for (int64_t i = 0; i < v->numel(); ++i) {
    const float orig = p[i];
    p[i] = orig + eps;
    const float f_plus = loss()->value.item();
    p[i] = orig - eps;
    const float f_minus = loss()->value.item();
    p[i] = orig;
    const float numeric = (f_plus - f_minus) / (2.0f * eps);
    max_err = std::max(max_err, std::fabs(analytic.data()[i] - numeric));
  }
  return max_err / scale;
}

// Finite differences through x, v, gain and bias of each conv, each held
// to ag::GradCheck's 5e-2 at step 1e-2: the weight-normalized v (m0.v,
// m1.v) relative to its largest entry, the rest per entry. Positive
// filters, biases and inputs keep every ReLU input positive, so no probe
// crosses a kink (the oracle tests cover the inactive side); filter
// entries of at least 0.1 keep each channel's ||v|| well above the step,
// so v/||v|| does not bend within a probe.
TEST(FusedTemporalBlockTest, GradCheck) {
  Rng rng(8);
  for (const BlockCase& c : AllBlockCases(/*out=*/3)) {
    nn::TemporalConvBlock block = MakeBlock(c, &rng);
    auto x = ag::MakeVariable(RandomUniform({c.t_len, 2, c.in}, 0.2f, 0.6f,
                                            &rng),
                              /*requires_grad=*/true);
    std::vector<ag::VarPtr> per_entry{x};
    std::vector<std::pair<std::string, ag::VarPtr>> normalized;
    for (const auto& [name, var] : block.NamedParameters()) {
      float* p = var->value.data();
      for (int64_t i = 0; i < var->numel(); ++i) {
        p[i] = name.ends_with("bias") ? 0.1f : std::max(0.1f, std::fabs(p[i]));
      }
      if (name == "m0.v" || name == "m1.v") {
        normalized.emplace_back(name, var);
      } else {
        per_entry.push_back(var);
      }
    }
    const Tensor cotangent = RandomUniform(
        {block.out_length(c.t_len), 2, c.out}, 0.5f, 1.5f, &rng);
    const auto loss = [&] {
      return ag::SumAll(
          ag::Mul(block.Forward(x, nullptr), ag::Constant(cotangent)));
    };
    EXPECT_TRUE(ag::GradCheck(
        [&](const std::vector<ag::VarPtr>&) { return loss(); }, per_entry,
        /*tol=*/5e-2f, /*eps=*/1e-2f))
        << c.Name();
    for (const auto& [name, v] : normalized) {
      EXPECT_LT(NormRelativeGradError(loss, v, /*eps=*/1e-2f), 5e-2f)
          << c.Name() << " " << name;
    }
  }
}

// The layer-0 shapes of the paper-scale model, with dropout, then a dilated
// stride-1 block whose conv1 taps overlap in the backward.
TEST(FusedTemporalBlockTest, BitIdenticalAcrossThreadCounts) {
  FusedOpChecker checker(9);
  const BlockCase cases[] = {{3, 1, 4, 15, 16, 16, 0.1f},
                             {3, 2, 1, 15, 16, 16, 0.1f}};
  for (const BlockCase& c : cases) {
    nn::TemporalConvBlock block = MakeBlock(c, checker.rng());
    const auto params = BlockParams(block, checker.rng());
    auto x = ag::MakeVariable(
        RandomGaussian({c.t_len, 840, c.in}, 0, 1, checker.rng()),
        /*requires_grad=*/true);
    std::vector<ag::VarPtr> inputs;
    std::vector<std::string> names;
    BlockInputs(x, params, &inputs, &names);
    checker.CheckThreadInvariant(
        c.Name(),
        [&](const std::vector<ag::VarPtr>& in) {
          Rng masks(10);
          return block.Forward(in[0], &masks);
        },
        inputs);
  }
}

// The serving forward (no tape, nothing saved) returns the training
// forward's value byte for byte.
TEST(FusedTemporalBlockTest, NoGradForwardMatchesGradForward) {
  Rng rng(11);
  const BlockCase cases[] = {{3, 1, 4, 15, 16, 16, 0.1f},
                             {3, 2, 2, 15, 3, 5, 0.1f},
                             {3, 1, 1, 6, 12, 12, 0.0f}};
  for (const BlockCase& c : cases) {
    nn::TemporalConvBlock block = MakeBlock(c, &rng);
    BlockParams(block, &rng);
    const Tensor x = RandomGaussian({c.t_len, 37, c.in}, 0, 1, &rng);
    Rng grad_masks(12), serve_masks(12);
    const Tensor with_tape =
        block.Forward(ag::MakeVariable(x.Clone(), true), &grad_masks)->value;
    Tensor without;
    {
      ag::NoGradGuard no_grad;
      without = block.Forward(ag::Constant(x), &serve_masks)->value;
    }
    ASSERT_EQ(with_tape.shape(), without.shape()) << c.Name();
    EXPECT_EQ(std::memcmp(with_tape.data(), without.data(),
                          sizeof(float) * with_tape.numel()),
              0)
        << c.Name();
  }
}

// ---------------------------------------------------------------------------
// Time-sensitive relational conv: ReLU(P(t) X(t) Θ)
// ---------------------------------------------------------------------------

// n stocks over 3 relation types with about 3n random pairs; the last stock
// has no relation (with self loops it keeps only its own row).
graph::RelationTensor RelationsWithIsolatedStock(int64_t n, Rng* rng) {
  graph::RelationTensor rel(n, 3);
  for (int64_t e = 0; e < 3 * n; ++e) {
    const int64_t i = static_cast<int64_t>(rng->UniformInt(n - 1));
    const int64_t j = static_cast<int64_t>(rng->UniformInt(n - 1));
    if (i == j) continue;
    rel.AddRelation(i, j, static_cast<int64_t>(rng->UniformInt(3))).Abort();
  }
  return rel;
}

// The chain the fused op replaced in RtGcnLayer: propagate, reshape, the
// [T·N, D] x [D, F] lift, reshape, ReLU.
ag::VarPtr ComposedRelationalConv(const graph::CsrPtr& g,
                                  const std::vector<ag::VarPtr>& in) {
  const ag::VarPtr& x = in[3];
  const int64_t t_len = x->value.dim(0), n = x->value.dim(1);
  const int64_t d = x->value.dim(2), f = in[2]->value.dim(1);
  ag::VarPtr y = graph::SparseTimeSensitivePropagate(g, in[0], in[1], x);
  ag::VarPtr z = ag::MatMul(ag::Reshape(y, {t_len * n, d}), in[2]);
  return ag::Relu(ag::Reshape(z, {t_len, n, f}));
}

ag::VarPtr FusedRelationalConv(const graph::CsrPtr& g,
                               const std::vector<ag::VarPtr>& in) {
  return graph::SparseTimeSensitiveConv(g, in[0], in[1], in[2], in[3]);
}

// Inputs w [3], b [1], Θ [d, f], x [T, n, d]; Θ is centered, so about half
// the pre-activations are negative and the ReLU masks them.
std::vector<ag::VarPtr> RelationalInputs(int64_t t_len, int64_t n, int64_t d,
                                         int64_t f, bool x_grad, Rng* rng) {
  return {ag::MakeVariable(RandomGaussian({3}, 1.0f, 0.1f, rng), true),
          ag::MakeVariable(RandomGaussian({1}, 0.0f, 0.1f, rng), true),
          ag::MakeVariable(RandomGaussian({d, f}, 0.0f, 0.5f, rng), true),
          ag::MakeVariable(RandomUniform({t_len, n, d}, -1.0f, 1.5f, rng),
                           x_grad)};
}

const std::vector<std::string> kRelationalNames = {"w", "b", "theta", "x"};

// With self loops (the isolated stock keeps its own row) and without (its
// row owns no entry, so its h is relu(0) = 0).
std::vector<std::pair<std::string, graph::CsrPtr>> RelationalGraphs(
    const graph::RelationTensor& rel) {
  return {{"self loops", graph::CsrGraph::NormalizedAdjacency(rel)},
          {"no self loops",
           graph::CsrGraph::Build(rel, graph::CsrGraph::Norm::kSymmetric,
                                  /*add_self_loops=*/false)}};
}

std::string RelationalCase(const std::string& graph, int64_t t_len,
                           int64_t d, int64_t f, bool x_grad) {
  return graph + " T=" + std::to_string(t_len) + " D=" + std::to_string(d) +
         " F=" + std::to_string(f) + (x_grad ? " dx" : "");
}

// D ∈ {4, 16} (the model's layer widths), T on both sides of the 8-lane
// block, F with and without a lane tail, x constant (the model input) and
// x requiring a gradient (a second layer's input).
TEST(FusedRelationalConvTest, MatchesComposedOracle) {
  FusedOpChecker checker(21);
  const graph::RelationTensor rel =
      RelationsWithIsolatedStock(23, checker.rng());
  for (const auto& [graph_name, g] : RelationalGraphs(rel)) {
    for (int64_t d : {4, 16}) {
      for (int64_t t_len : {5, 8, 15, 17}) {
        for (int64_t f : {16, 5}) {
          for (bool x_grad : {false, true}) {
            const auto inputs = RelationalInputs(t_len, rel.num_stocks(), d, f,
                                                 x_grad, checker.rng());
            checker.Check(
                RelationalCase(graph_name, t_len, d, f, x_grad),
                [&](const std::vector<ag::VarPtr>& in) {
                  return FusedRelationalConv(g, in);
                },
                [&](const std::vector<ag::VarPtr>& in) {
                  return ComposedRelationalConv(g, in);
                },
                inputs, kRelationalNames);
          }
        }
      }
    }
  }
}

// Under the reference backend the lift sums like the reference matmul_rows
// (from 0 in k order, mul then add) and the lift-back like the reference
// g·Θᵀ, so the value and the gradients of w, b and x equal the chain's bit
// for bit; only dΘ folds in a different order.
TEST(FusedRelationalConvTest, BitIdenticalToComposedUnderReferenceKernels) {
  ScopedKernelBackend scope(kernels::Backend::kReference);
  FusedOpChecker checker(22);
  const graph::RelationTensor rel =
      RelationsWithIsolatedStock(150, checker.rng());
  for (const auto& [graph_name, g] : RelationalGraphs(rel)) {
    for (int64_t d : {4, 16}) {
      for (int64_t t_len : {5, 15, 17}) {
        const auto inputs = RelationalInputs(t_len, rel.num_stocks(), d, 16,
                                             /*x_grad=*/true, checker.rng());
        const std::string what =
            RelationalCase(graph_name, t_len, d, 16, true);
        const FusedOpChecker::Fn fused =
            [&](const std::vector<ag::VarPtr>& in) {
              return FusedRelationalConv(g, in);
            };
        const Tensor cotangent = checker.Cotangent(fused, inputs);
        const std::vector<Tensor> want = FusedOpChecker::Run(
            [&](const std::vector<ag::VarPtr>& in) {
              return ComposedRelationalConv(g, in);
            },
            inputs, cotangent);
        const std::vector<Tensor> got =
            FusedOpChecker::Run(fused, inputs, cotangent);
        for (size_t i : {0, 1, 2, 4}) {  // h, dw, db, dx
          ASSERT_EQ(want[i].shape(), got[i].shape()) << what;
          EXPECT_EQ(std::memcmp(want[i].data(), got[i].data(),
                                sizeof(float) * want[i].numel()),
                    0)
              << what << " output " << i;
        }
      }
    }
  }
}

// Finite differences through w, b, Θ and x. Positive inputs, weights and Θ
// keep every pre-activation well above 0, so no probe crosses the ReLU's
// kink (the oracle tests cover the masked side).
TEST(FusedRelationalConvTest, GradCheck) {
  Rng rng(23);
  const graph::RelationTensor rel = RelationsWithIsolatedStock(6, &rng);
  for (const auto& [graph_name, g] : RelationalGraphs(rel)) {
    for (int64_t d : {4, 16}) {
      std::vector<ag::VarPtr> in = {
          ag::MakeVariable(RandomGaussian({3}, 1.0f, 0.1f, &rng), true),
          ag::MakeVariable(Tensor::Full({1}, 0.1f), true),
          ag::MakeVariable(RandomUniform({d, 5}, 0.2f, 0.6f, &rng), true),
          ag::MakeVariable(RandomUniform({5, 6, d}, 0.9f, 1.1f, &rng), true)};
      const Tensor cotangent = RandomUniform({5, 6, 5}, 0.5f, 1.5f, &rng);
      EXPECT_TRUE(ag::GradCheck(
          [&](const std::vector<ag::VarPtr>&) {
            return ag::SumAll(
                ag::Mul(FusedRelationalConv(g, in), ag::Constant(cotangent)));
          },
          in))
          << graph_name << " D=" << d;
    }
  }
}

// The paper-scale layer-0 shapes (T = 15, D = 4, F = 16) and a second
// layer's (D = 16, x with a gradient), over 300 stocks: five 64-row chunks
// of the backward's w/b and Θ partials.
TEST(FusedRelationalConvTest, BitIdenticalAcrossThreadCounts) {
  FusedOpChecker checker(24);
  const graph::RelationTensor rel =
      RelationsWithIsolatedStock(300, checker.rng());
  const graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  for (int64_t d : {4, 16}) {
    const bool x_grad = d == 16;
    checker.CheckThreadInvariant(
        RelationalCase("self loops", 15, d, 16, x_grad),
        [&](const std::vector<ag::VarPtr>& in) {
          return FusedRelationalConv(g, in);
        },
        RelationalInputs(15, rel.num_stocks(), d, 16, x_grad, checker.rng()));
  }
}

// A forward without a tape keeps no per-entry correlations; its value is
// the training forward's byte for byte, fused or not.
TEST(FusedRelationalConvTest, NoGradForwardMatchesGradForward) {
  Rng rng(25);
  const graph::RelationTensor rel = RelationsWithIsolatedStock(40, &rng);
  const graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  for (int64_t d : {4, 16}) {
    const auto in = RelationalInputs(15, rel.num_stocks(), d, 16,
                                     /*x_grad=*/false, &rng);
    const Tensor fused = FusedRelationalConv(g, in)->value;
    const Tensor plain =
        graph::SparseTimeSensitivePropagate(g, in[0], in[1], in[3])->value;
    ag::NoGradGuard no_grad;
    const std::vector<ag::VarPtr> constants = {
        ag::Constant(in[0]->value), ag::Constant(in[1]->value),
        ag::Constant(in[2]->value), ag::Constant(in[3]->value)};
    const Tensor fused_serve = FusedRelationalConv(g, constants)->value;
    const Tensor plain_serve = graph::SparseTimeSensitivePropagate(
                                   g, constants[0], constants[1], constants[3])
                                   ->value;
    EXPECT_EQ(std::memcmp(fused.data(), fused_serve.data(),
                          sizeof(float) * fused.numel()),
              0)
        << "fused D=" << d;
    EXPECT_EQ(std::memcmp(plain.data(), plain_serve.data(),
                          sizeof(float) * plain.numel()),
              0)
        << "propagate D=" << d;
  }
}

}  // namespace
}  // namespace rtgcn
