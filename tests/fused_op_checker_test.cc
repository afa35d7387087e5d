// Oracle tests for the fused autograd ops.
//
// ag::PairwiseRankingLoss and the fused nn::CausalConv1d replace chains of
// small ops. The chains are kept here, and only here, as the reference: the
// checker runs a fused op and its composed oracle on the same seeded
// inputs and the same output cotangent, then compares the forward value and
// every input gradient. The fused ops sum in a different order than the
// chains, so the comparison is |fused - oracle| <= rtol * max|oracle| per
// tensor (a norm-relative bound: a gradient entry that cancels to ~0 is not
// held to its own magnitude). Each op also passes ag::GradCheck and is
// bit-identical at 1, 2, 4 and 8 threads, and the loss is bit-identical
// under every kernel backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/random.h"
#include "common/thread_pool.h"
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

  /// Compares `fused` against `oracle` on `inputs`. `names` labels the
  /// input gradients in failure messages.
  void Check(const std::string& what, const Fn& fused, const Fn& oracle,
             const std::vector<ag::VarPtr>& inputs,
             const std::vector<std::string>& names) {
    ASSERT_EQ(inputs.size(), names.size()) << what;
    Tensor cotangent;
    {
      ag::NoGradGuard no_grad;
      cotangent = RandomUniform(fused(inputs)->shape(), 0.5f, 1.5f, &rng_);
    }
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
    Tensor cotangent;
    {
      ag::NoGradGuard no_grad;
      cotangent = RandomUniform(fn(inputs)->shape(), 0.5f, 1.5f, &rng_);
    }
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
// Causal convolution
// ---------------------------------------------------------------------------

struct ConvCase {
  int64_t kernel, dilation, stride, t_len;
  bool weight_norm;

  std::string Name() const {
    return "k=" + std::to_string(kernel) + " d=" + std::to_string(dilation) +
           " s=" + std::to_string(stride) + " T=" + std::to_string(t_len) +
           (weight_norm ? " wn" : " plain");
  }
};

std::vector<ConvCase> AllConvCases() {
  std::vector<ConvCase> cases;
  for (int64_t k : {1, 3}) {
    for (int64_t d : {1, 2}) {
      for (int64_t s : {1, 2, 4}) {
        for (int64_t t : {1, 4, 15}) {
          for (bool wn : {true, false}) cases.push_back({k, d, s, t, wn});
        }
      }
    }
  }
  return cases;
}

// Inputs x, v, [gain,] bias of a freshly initialized conv.
std::vector<ag::VarPtr> ConvInputs(const ConvParams& p, ag::VarPtr x) {
  std::vector<ag::VarPtr> in{std::move(x), p.v};
  if (p.gain) in.push_back(p.gain);
  in.push_back(p.bias);
  return in;
}

std::vector<std::string> ConvInputNames(const ConvParams& p) {
  std::vector<std::string> names{"x", "v"};
  if (p.gain) names.push_back("gain");
  names.push_back("bias");
  return names;
}

TEST(FusedCausalConvTest, MatchesComposedOracle) {
  FusedOpChecker checker(5);
  constexpr int64_t kStocks = 5, kIn = 3, kOut = 4;
  for (const ConvCase& c : AllConvCases()) {
    nn::CausalConv1d conv(kIn, kOut, c.kernel, checker.rng(), c.dilation,
                          c.stride, c.weight_norm);
    const ConvParams p = ParamsOf(conv);
    // A nonzero bias, so dbias and the bias add are exercised.
    p.bias->value = RandomGaussian({kOut}, 0, 1, checker.rng());
    auto x = ag::MakeVariable(
        RandomGaussian({c.t_len, kStocks, kIn}, 0, 1, checker.rng()),
        /*requires_grad=*/true);
    checker.Check(
        c.Name(),
        [&](const std::vector<ag::VarPtr>& in) { return conv.Forward(in[0]); },
        [&](const std::vector<ag::VarPtr>& in) {
          return ComposedCausalConv(in[0], p, c.dilation, c.stride);
        },
        ConvInputs(p, x), ConvInputNames(p));
  }
}

TEST(FusedCausalConvTest, GradCheck) {
  Rng rng(6);
  for (const ConvCase& c : AllConvCases()) {
    nn::CausalConv1d conv(2, 3, c.kernel, &rng, c.dilation, c.stride,
                          c.weight_norm);
    const ConvParams p = ParamsOf(conv);
    auto x = ag::MakeVariable(RandomGaussian({c.t_len, 3, 2}, 0, 1, &rng),
                              /*requires_grad=*/true);
    const Tensor cotangent =
        RandomUniform({conv.out_length(c.t_len), 3, 3}, 0.5f, 1.5f, &rng);
    // The conv is linear in x, v (without weight norm) and bias, so a
    // wide step costs no truncation error and keeps float cancellation in
    // the differences small next to the taps' tiny weight-norm gradients.
    EXPECT_TRUE(ag::GradCheck(
        [&](const std::vector<ag::VarPtr>& in) {
          return ag::SumAll(
              ag::Mul(conv.Forward(in[0]), ag::Constant(cotangent)));
        },
        ConvInputs(p, x), /*tol=*/5e-2f, /*eps=*/1e-2f))
        << c.Name();
  }
}

TEST(FusedCausalConvTest, BitIdenticalAcrossThreadCounts) {
  FusedOpChecker checker(7);
  // The layer-0 shapes of the paper-scale model, then a dilated stride-1
  // conv whose taps overlap in the backward scatter.
  const ConvCase cases[] = {{3, 1, 4, 15, true}, {3, 2, 1, 15, true}};
  for (const ConvCase& c : cases) {
    nn::CausalConv1d conv(16, 16, c.kernel, checker.rng(), c.dilation,
                          c.stride, c.weight_norm);
    const ConvParams p = ParamsOf(conv);
    auto x = ag::MakeVariable(
        RandomGaussian({c.t_len, 840, 16}, 0, 1, checker.rng()),
        /*requires_grad=*/true);
    checker.CheckThreadInvariant(
        c.Name(),
        [&](const std::vector<ag::VarPtr>& in) { return conv.Forward(in[0]); },
        ConvInputs(p, x));
  }
}

// The block's residual path projects only the kept times; the oracle
// projects every time and then downsamples, as the block used to.
TEST(FusedCausalConvTest, TemporalBlockMatchesComposedOracle) {
  FusedOpChecker checker(8);
  for (int64_t stride : {1, 2, 4}) {
    for (int64_t t_len : {4, 15}) {
      nn::TemporalConvBlock block(3, 5, 3, checker.rng(), /*dilation=*/2,
                                  stride, /*dropout=*/0.0f);
      const ConvParams c1 = ParamsOf(block, "m0.");
      const ConvParams c2 = ParamsOf(block, "m1.");
      const ConvParams res = ParamsOf(block, "m2.");
      auto x = ag::MakeVariable(
          RandomGaussian({t_len, 6, 3}, 0, 1, checker.rng()),
          /*requires_grad=*/true);
      std::vector<ag::VarPtr> inputs{x};
      std::vector<std::string> names{"x"};
      for (const auto& [name, var] : block.NamedParameters()) {
        inputs.push_back(var);
        names.push_back(name);
      }
      checker.Check(
          "block s=" + std::to_string(stride) + " T=" + std::to_string(t_len),
          [&](const std::vector<ag::VarPtr>& in) {
            return block.Forward(in[0], checker.rng());
          },
          [&](const std::vector<ag::VarPtr>& in) {
            ag::VarPtr h = ag::Relu(ComposedCausalConv(in[0], c1, 1, stride));
            h = ag::Relu(ComposedCausalConv(h, c2, 2, stride));
            ag::VarPtr r = ComposedCausalConv(in[0], res, 1, 1);
            if (stride > 1) {
              const int64_t step = stride * stride;
              r = ag::Downsample(r, 0, step, (t_len - 1) % step);
            }
            return ag::Relu(ag::Add(h, r));
          },
          inputs, names);
    }
  }
}

}  // namespace
}  // namespace rtgcn
