// Sparse-vs-dense-oracle equivalence test harness.
//
// The sparse CSR propagation path must agree with the paper's dense [N, N]
// formulas (dense_graph_oracle.h) on the same inputs: forward values and
// every gradient. The checker runs a reference functor (the dense formulas)
// and an actual functor (the CSR path), each returning a vector of tensors,
// then compares the outputs pairwise with per-check epsilon control.
//
// The two are allowed to differ in float detail (the sparse path folds
// per-entry products in CSR order, the dense formulas run N-wide matmul
// rows), so comparison is |a-b| <= atol + rtol*|expected| per element — bit
// equality across thread counts is asserted separately by
// parallel_equivalence_test.cc.
#ifndef RTGCN_TESTS_GRAPH_CHECKER_H_
#define RTGCN_TESTS_GRAPH_CHECKER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/sparse.h"
#include "tensor/init.h"
#include "tensor/tensor.h"

namespace rtgcn {

/// \brief Runs a dense reference and the sparse path and compares every
/// output tensor.
class GraphChecker {
 public:
  explicit GraphChecker(uint64_t seed = 42) : rng_(seed) {}

  /// Comparison tolerances for subsequent Check/ExpectClose calls. Defaults
  /// suit single propagation ops; multi-op checks loosen rtol because
  /// accumulation-order differences compound through the chain.
  GraphChecker& set_rtol(float rtol) {
    rtol_ = rtol;
    return *this;
  }
  GraphChecker& set_atol(float atol) {
    atol_ = atol;
    return *this;
  }

  /// Seeded input generators. Draw all inputs before Check and capture them
  /// in both functors so they see identical bytes.
  Tensor Gaussian(const Shape& shape, float mean = 0.0f, float stddev = 1.0f) {
    return RandomGaussian(shape, mean, stddev, &rng_);
  }
  Tensor Uniform(const Shape& shape, float lo, float hi) {
    return RandomUniform(shape, lo, hi, &rng_);
  }
  Rng* rng() { return &rng_; }

  /// Runs `reference` (the dense formulas), then `actual` (the sparse
  /// path), and expects the returned tensors to match pairwise within the
  /// current tolerances. `what` labels failures.
  void Check(const std::string& what,
             const std::function<std::vector<Tensor>()>& reference,
             const std::function<std::vector<Tensor>()>& actual) {
    const std::vector<Tensor> expected = reference();
    const std::vector<Tensor> got = actual();
    ASSERT_EQ(expected.size(), got.size()) << what;
    for (size_t i = 0; i < expected.size(); ++i) {
      ExpectClose(expected[i], got[i],
                  what + " output " + std::to_string(i) + " [sparse]");
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

// ---------------------------------------------------------------------------
// Reference loops for SparseTimeSensitivePropagate (Eq. 5).
//
// The op runs in a node-major, time-blocked layout; these are the scalar
// [T, N, D] loops it replaced, kept as the oracle it must match BIT FOR BIT:
// per (row i, t, entry e) one D-wide dot from 0, then c·dot, then as·corr,
// entries accumulated in CSR order; the w/b reduction folds 64-row chunks
// left to right exactly like ParallelReduce(0, N, 64, ...).
// ---------------------------------------------------------------------------

struct TimeSensitiveReference {
  Tensor y;   // [T, N, D]
  Tensor p;   // [T, nnz], p[t, e] = as_e · corr[t, e]
  Tensor dw;  // [K]   (backward only)
  Tensor db;  // [1]   (backward only)
  Tensor dx;  // [T, N, D] (backward with want_dx only)
};

/// Forward, and with a defined `grad` (cotangent of y) the backward, of the
/// time-sensitive propagation over `g` for x [T, N, D].
inline TimeSensitiveReference ReferenceTimeSensitivePropagate(
    const graph::CsrGraph& g, const Tensor& w, const Tensor& b,
    const Tensor& x, const Tensor& grad, bool want_dx) {
  const int64_t t_steps = x.dim(0), n = x.dim(1), d = x.dim(2);
  const int64_t nnz = g.num_entries();
  const int64_t k = w.numel();
  const float c = 1.0f / std::sqrt(static_cast<float>(d));
  const int64_t* rp = g.row_ptr().data();
  const int32_t* col = g.col().data();
  const int32_t* rev = g.reverse_entry().data();
  const float* coeff = g.coeff().data();
  const int64_t* tp = g.type_ptr().data();
  const int32_t* types = g.types().data();
  auto dot = [d](const float* a, const float* bb) {
    float acc = 0.0f;
    for (int64_t q = 0; q < d; ++q) acc += a[q] * bb[q];
    return acc;
  };

  std::vector<float> s(static_cast<size_t>(nnz)), as(s.size());
  for (int64_t e = 0; e < nnz; ++e) {
    float weight = 1.0f;
    if (!g.IsSelf(e)) {
      weight = b.data()[0];
      for (int64_t q = tp[e]; q < tp[e + 1]; ++q) weight += w.data()[types[q]];
    }
    s[e] = weight;
    as[e] = coeff[e] * weight;
  }

  TimeSensitiveReference ref;
  std::vector<float> corr(static_cast<size_t>(t_steps * nnz));
  ref.p = Tensor({t_steps, nnz});
  ref.y = Tensor::Zeros(x.shape());
  const float* px = x.data();
  float* pp = ref.p.data();
  float* py = ref.y.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t t = 0; t < t_steps; ++t) {
      const float* xt = px + t * n * d;
      const float* xi = xt + i * d;
      float* yi = py + (t * n + i) * d;
      for (int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        const float* xj = xt + static_cast<int64_t>(col[e]) * d;
        const float cv = c * dot(xi, xj);
        const float pv = as[e] * cv;
        corr[t * nnz + e] = cv;
        pp[t * nnz + e] = pv;
        for (int64_t q = 0; q < d; ++q) yi[q] += pv * xj[q];
      }
    }
  }
  if (!grad.defined()) return ref;

  const float* pg = grad.data();
  constexpr int64_t kRowGrain = 64;
  std::vector<float> acc(static_cast<size_t>(k + 1), 0.0f);
  for (int64_t lo = 0; lo < n; lo += kRowGrain) {
    std::vector<float> partial(static_cast<size_t>(k + 1), 0.0f);
    for (int64_t i = lo; i < std::min(n, lo + kRowGrain); ++i) {
      for (int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        if (col[e] == i) continue;
        float ds = 0.0f;
        for (int64_t t = 0; t < t_steps; ++t) {
          const float* gi = pg + (t * n + i) * d;
          const float* xj = px + (t * n + static_cast<int64_t>(col[e])) * d;
          ds += corr[t * nnz + e] * dot(gi, xj);
        }
        ds *= coeff[e];
        for (int64_t q = tp[e]; q < tp[e + 1]; ++q) partial[types[q]] += ds;
        partial[k] += ds;
      }
    }
    for (int64_t q = 0; q <= k; ++q) acc[q] += partial[q];
  }
  ref.dw = Tensor(w.shape(), std::vector<float>(acc.begin(), acc.begin() + k));
  ref.db = Tensor(b.shape(), std::vector<float>(b.numel(), acc[k]));
  if (!want_dx) return ref;

  ref.dx = Tensor::Zeros(x.shape());
  float* pdx = ref.dx.data();
  for (int64_t m = 0; m < n; ++m) {
    for (int64_t t = 0; t < t_steps; ++t) {
      const float* gt = pg + t * n * d;
      const float* xt = px + t * n * d;
      const float* gm = gt + m * d;
      const float* xm = xt + m * d;
      float* dm = pdx + (t * n + m) * d;
      for (int64_t e = rp[m]; e < rp[m + 1]; ++e) {
        const int64_t j = col[e];
        const float* gj = gt + j * d;
        const float* xj = xt + j * d;
        const float p_rev = pp[t * nnz + rev[e]];
        const float coef2 = as[e] * c * dot(gm, xj);
        const float coef3 = coeff[rev[e]] * s[e] * c * dot(gj, xm);
        for (int64_t q = 0; q < d; ++q) {
          dm[q] += p_rev * gj[q] + (coef2 + coef3) * xj[q];
        }
      }
    }
  }
  return ref;
}

/// Time average of a [T, nnz] reference P in t order, then · 1/T: the
/// Fig. 8 diagnostic RtGcnLayer::Propagation() densifies.
inline std::vector<float> ReferenceTimeAverage(const Tensor& p) {
  const int64_t t_steps = p.dim(0), nnz = p.dim(1);
  std::vector<float> avg(static_cast<size_t>(nnz), 0.0f);
  for (int64_t t = 0; t < t_steps; ++t) {
    for (int64_t e = 0; e < nnz; ++e) avg[e] += p.data()[t * nnz + e];
  }
  const float inv = 1.0f / static_cast<float>(t_steps);
  for (int64_t e = 0; e < nnz; ++e) avg[e] *= inv;
  return avg;
}

/// Expects `got` to equal `expected` bit for bit (NaN payloads included).
inline void ExpectBitEqual(const float* expected, const float* got,
                           int64_t count, const std::string& context) {
  int64_t mismatches = 0;
  constexpr int64_t kMaxReported = 8;
  for (int64_t i = 0; i < count; ++i) {
    if (std::memcmp(expected + i, got + i, sizeof(float)) == 0) continue;
    if (++mismatches <= kMaxReported) {
      ADD_FAILURE() << context << ": element " << i << " expected "
                    << expected[i] << " got " << got[i];
    }
  }
  EXPECT_EQ(mismatches, 0) << context << ": " << mismatches << " of " << count
                           << " elements differ";
}

inline void ExpectBitEqual(const Tensor& expected, const Tensor& got,
                           const std::string& context) {
  ASSERT_TRUE(expected.defined() && got.defined()) << context;
  ASSERT_EQ(expected.shape(), got.shape()) << context;
  ExpectBitEqual(expected.data(), got.data(), expected.numel(), context);
}

}  // namespace rtgcn

#endif  // RTGCN_TESTS_GRAPH_CHECKER_H_
