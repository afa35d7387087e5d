// Kernel-equivalence test harness.
//
// Every SIMD kernel variant must agree with the scalar reference backend on
// the same inputs. The checker runs a tensor-producing functor once per
// registered backend (tensor/kernels/kernels.h) with the backend forced via
// SetBackend, then compares each result against the reference result with
// per-check epsilon control. Inputs are generated from a seeded Rng owned by
// the checker so failures reproduce from the test name alone.
//
// Matmul and softmax may differ from the reference in float detail (FMA,
// vectorized exp), so comparison is |a-b| <= atol + rtol*|b| per element;
// exact ops (transpose) set both tolerances to 0. The kernels that must
// match the reference bit for bit are checked by memcmp outside this
// harness: the relational lanes in sparse_graph_test
// (TimeSensitivePropagateBitIdenticalToReferenceLoops), the pairwise-hinge
// rows in fused_op_checker_test
// (PairwiseRankingLossBitIdenticalAcrossBackends), and the avx2 matmul's
// narrow-column FMA chains in kernel_checker_test
// (MatMulNarrowColumnsMatchFmaChain). The thread-count determinism tests
// hold a single backend fixed and also compare bits.
#ifndef RTGCN_TESTS_KERNEL_CHECKER_H_
#define RTGCN_TESTS_KERNEL_CHECKER_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "common/random.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rtgcn {

/// \brief Restores the previously active kernel backend on scope exit.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(kernels::Backend backend)
      : prev_(kernels::ActiveBackend()) {
    kernels::SetBackend(backend);
  }
  ~ScopedKernelBackend() { kernels::SetBackend(prev_); }

  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  kernels::Backend prev_;
};

/// \brief Runs an op under every supported backend and compares against the
/// reference backend.
class KernelChecker {
 public:
  explicit KernelChecker(uint64_t seed = 42) : rng_(seed) {}

  /// Comparison tolerances for subsequent Check calls. Defaults suit
  /// elementwise ops; matmul/softmax sweeps loosen rtol for long
  /// accumulations and the vectorized exp approximation.
  KernelChecker& set_rtol(float rtol) {
    rtol_ = rtol;
    return *this;
  }
  KernelChecker& set_atol(float atol) {
    atol_ = atol;
    return *this;
  }

  /// Seeded input generators. Values are drawn once per call, so create all
  /// inputs before Check and capture them in the functor — every backend
  /// then sees identical bytes.
  Tensor Gaussian(const Shape& shape, float mean = 0.0f, float stddev = 1.0f) {
    return RandomGaussian(shape, mean, stddev, &rng_);
  }
  Tensor Uniform(const Shape& shape, float lo, float hi) {
    return RandomUniform(shape, lo, hi, &rng_);
  }
  Rng* rng() { return &rng_; }

  /// Runs `op` under the reference backend, then under every other
  /// registered backend whose supported() predicate passes, and expects the
  /// results to match elementwise within the current tolerances. `what`
  /// labels failures (include the shape).
  void Check(const std::string& what, const std::function<Tensor()>& op) {
    Tensor expected;
    {
      ScopedKernelBackend scope(kernels::Backend::kReference);
      expected = op();
    }
    for (const kernels::KernelSet* ks : kernels::AllKernels()) {
      if (ks == &kernels::Reference()) continue;
      if (!ks->supported()) {
        GTEST_LOG_(INFO) << "kernel backend '" << ks->name
                         << "' unsupported on this CPU/build; skipping "
                         << what;
        continue;
      }
      ScopedKernelBackend scope(ks == &kernels::Avx2()
                                    ? kernels::Backend::kAvx2
                                    : kernels::Backend::kReference);
      Tensor actual = op();
      ExpectClose(expected, actual, what + " [" + ks->name + "]");
    }
  }

  /// Elementwise |a-b| <= atol + rtol*|expected| comparison with indexed
  /// failure reporting (first kMaxReported offenders).
  void ExpectClose(const Tensor& expected, const Tensor& actual,
                   const std::string& context) const {
    ASSERT_TRUE(expected.defined() && actual.defined()) << context;
    ASSERT_EQ(expected.shape(), actual.shape()) << context;
    const float* pe = expected.data();
    const float* pa = actual.data();
    int64_t mismatches = 0;
    constexpr int64_t kMaxReported = 8;
    for (int64_t i = 0; i < expected.numel(); ++i) {
      const float e = pe[i];
      const float a = pa[i];
      if (e == a) continue;                          // covers +/-inf agreement
      if (std::isnan(e) && std::isnan(a)) continue;  // same undefined result
      const float err = std::fabs(a - e);
      const float bound = atol_ + rtol_ * std::fabs(e);
      if (std::isfinite(err) && err <= bound) continue;
      if (++mismatches <= kMaxReported) {
        ADD_FAILURE() << context << ": element " << i << " expected " << e
                      << " got " << a << " (|diff| " << err << " > bound "
                      << bound << ")";
      }
    }
    EXPECT_EQ(mismatches, 0) << context << ": " << mismatches << " of "
                             << expected.numel() << " elements out of bounds";
  }

 private:
  Rng rng_;
  float rtol_ = 1e-5f;
  float atol_ = 1e-6f;
};

}  // namespace rtgcn

#endif  // RTGCN_TESTS_KERNEL_CHECKER_H_
