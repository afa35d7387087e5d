// Reference (scalar) kernel backend: the original portable loops. This is
// the ground truth the kernel checker validates every other variant
// against, and the fallback on CPUs without AVX2.
#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels/kernels.h"

namespace rtgcn::kernels {
namespace {

bool AlwaysSupported() { return true; }

void AddRef(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void SubRef(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void MulRef(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void DivRef(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}
void MaxRef(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::max(a[i], b[i]);
}
void MinRef(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = std::min(a[i], b[i]);
}
void AddScalarRef(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}
void MulScalarRef(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
void ReluRef(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0 ? a[i] : 0.0f;
}
void LeakyReluRef(const float* a, float slope, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0 ? a[i] : slope * a[i];
}

// C[m,n] += A[m,k] * B[k,n], ikj loop order for cache-friendly access.
// Each output row is produced with the serial accumulation order
// regardless of the [row_lo, row_hi) panel it arrives in. A zero a[i,p]
// still multiplies its row of B, so 0·inf and 0·NaN reach C as NaN.
void MatMulRowsRef(const float* a, const float* b, float* c, int64_t row_lo,
                   int64_t row_hi, int64_t k, int64_t n) {
  for (int64_t i = row_lo; i < row_hi; ++i) {
    float* ci = c + i * n;
    const float* ai = a + i * k;
    for (int64_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      const float* bp = b + p * n;
      for (int64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

// Per-row shift-by-max softmax, matching the composed Max/Sub/Exp/Sum/Div
// path element for element (serial max scan, serial sum).
void SoftmaxRowsRef(const float* in, float* out, int64_t row_lo,
                    int64_t row_hi, int64_t cols) {
  for (int64_t r = row_lo; r < row_hi; ++r) {
    const float* x = in + r * cols;
    float* y = out + r * cols;
    float mx = x[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, x[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      y[j] = std::exp(x[j] - mx);
      sum += y[j];
    }
    for (int64_t j = 0; j < cols; ++j) y[j] /= sum;
  }
}

// Naive row scan; writes are column-strided (po[j*m + i]), which is what
// the blocked avx2 variant exists to avoid.
void TransposeRowsRef(const float* in, float* out, int64_t row_lo,
                      int64_t row_hi, int64_t m, int64_t n) {
  for (int64_t i = row_lo; i < row_hi; ++i) {
    for (int64_t j = 0; j < n; ++j) out[j * m + i] = in[i * n + j];
  }
}

// ---------------------------------------------------------------------------
// Eq. 5 relational lanes
// ---------------------------------------------------------------------------

// out[l] = Σ_k a[k·t_stride + l] · b[k·t_stride + l] for one block of
// lanes, summed in k order from 0 (the lane-wise DotF).
inline void LaneDot(const float* a, const float* b, int64_t d, int64_t t_stride,
                    float* out) {
  float acc[kTimeLanes] = {};
  for (int64_t k = 0; k < d; ++k) {
    const float* ak = a + k * t_stride;
    const float* bk = b + k * t_stride;
    for (int64_t l = 0; l < kTimeLanes; ++l) acc[l] += ak[l] * bk[l];
  }
  for (int64_t l = 0; l < kTimeLanes; ++l) out[l] = acc[l];
}

void TsForwardRowsRef(const TimeLaneGraph& g, const float* xn,
                      const float* as, float c, int64_t row_lo,
                      int64_t row_hi, float* corr, float* yn) {
  const int64_t d = g.d;
  const int64_t t_stride = g.t_stride;
  // Rows accumulate in a local buffer, which the compiler knows aliases
  // no input, and are then copied out.
  std::vector<float> acc(static_cast<size_t>(d * t_stride));
  float* yi = acc.data();
  for (int64_t i = row_lo; i < row_hi; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    const float* xi = xn + i * d * t_stride;
    for (int64_t e = g.row_ptr[i]; e < g.row_ptr[i + 1]; ++e) {
      const float* xj = xn + static_cast<int64_t>(g.col[e]) * d * t_stride;
      float* ce = corr + e * t_stride;
      const float a = as[e];
      for (int64_t blk = 0; blk < t_stride; blk += kTimeLanes) {
        float dot[kTimeLanes];
        LaneDot(xi + blk, xj + blk, d, t_stride, dot);
        float pv[kTimeLanes];
        for (int64_t l = 0; l < kTimeLanes; ++l) {
          const float cv = c * dot[l];
          ce[blk + l] = cv;
          pv[l] = a * cv;
        }
        for (int64_t k = 0; k < d; ++k) {
          float* yk = yi + k * t_stride + blk;
          const float* xk = xj + k * t_stride + blk;
          for (int64_t l = 0; l < kTimeLanes; ++l) yk[l] += pv[l] * xk[l];
        }
      }
    }
    std::copy(acc.begin(), acc.end(), yn + i * d * t_stride);
  }
}

void TsGradEntriesRowsRef(const TimeLaneGraph& g, const float* gn,
                          const float* xn, const float* corr, int64_t row_lo,
                          int64_t row_hi, float* gx, float* ds) {
  const int64_t d = g.d;
  const int64_t t_stride = g.t_stride;
  std::vector<float> scratch(gx ? 0 : static_cast<size_t>(t_stride));
  for (int64_t i = row_lo; i < row_hi; ++i) {
    const float* gi = gn + i * d * t_stride;
    for (int64_t e = g.row_ptr[i]; e < g.row_ptr[i + 1]; ++e) {
      float* gxe = gx ? gx + e * t_stride : scratch.data();
      const float* xj = xn + static_cast<int64_t>(g.col[e]) * d * t_stride;
      for (int64_t blk = 0; blk < t_stride; blk += kTimeLanes) {
        LaneDot(gi + blk, xj + blk, d, t_stride, gxe + blk);
      }
      if (ds == nullptr) continue;
      const float* ce = corr + e * t_stride;
      float sum = 0.0f;
      for (int64_t t = 0; t < g.t_steps; ++t) sum += ce[t] * gxe[t];
      sum *= g.coeff[e];
      ds[e] = sum;
    }
  }
}

void TsGradXRowsRef(const TimeLaneGraph& g, const float* gn, const float* xn,
                    const float* corr, const float* gx, const float* as,
                    const float* s, float c, int64_t row_lo, int64_t row_hi,
                    float* dxn) {
  const int64_t d = g.d;
  const int64_t t_stride = g.t_stride;
  std::vector<float> acc(static_cast<size_t>(d * t_stride));  // as above
  float* dm = acc.data();
  for (int64_t m = row_lo; m < row_hi; ++m) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int64_t e = g.row_ptr[m]; e < g.row_ptr[m + 1]; ++e) {
      const int64_t j = g.col[e];
      const int32_t r = g.rev[e];
      const float a2 = as[e] * c;
      const float a3 = g.coeff[r] * s[e] * c;
      const float ar = as[r];
      const float* gxe = gx + e * t_stride;
      const float* gxr = gx + static_cast<int64_t>(r) * t_stride;
      const float* cr = corr + static_cast<int64_t>(r) * t_stride;
      const float* gj = gn + j * d * t_stride;
      const float* xj = xn + j * d * t_stride;
      for (int64_t blk = 0; blk < t_stride; blk += kTimeLanes) {
        float p_rev[kTimeLanes];
        float coef[kTimeLanes];
        for (int64_t l = 0; l < kTimeLanes; ++l) {
          p_rev[l] = ar * cr[blk + l];
          coef[l] = a2 * gxe[blk + l] + a3 * gxr[blk + l];
        }
        for (int64_t kk = 0; kk < d; ++kk) {
          float* dk = dm + kk * t_stride + blk;
          const float* gk = gj + kk * t_stride + blk;
          const float* xk = xj + kk * t_stride + blk;
          for (int64_t l = 0; l < kTimeLanes; ++l) {
            dk[l] += p_rev[l] * gk[l] + coef[l] * xk[l];
          }
        }
      }
    }
    std::copy(acc.begin(), acc.end(), dxn + m * d * t_stride);
  }
}

// ---------------------------------------------------------------------------
// Pairwise hinge row sums
// ---------------------------------------------------------------------------

void PairwiseHingeRowsRef(const float* s, const float* y, int64_t n,
                          int64_t row_lo, int64_t row_hi, double* row_loss,
                          double* row_grad) {
  // Two passes per row: a branch-free, vectorizable pass writes each
  // pair's hinge and its active label gap, then a sequential pass sums
  // them. (Summing inside the first loop lets the compiler turn the
  // selects into branches, which mispredict on the unordered pairs.)
  std::vector<float> hinge(static_cast<size_t>(n));
  std::vector<float> active(static_cast<size_t>(n));
  float* ph = hinge.data();
  float* pa = active.data();
  for (int64_t i = row_lo; i < row_hi; ++i) {
    const float si = s[i];
    const float yi = y[i];
    for (int64_t j = 0; j < n; ++j) {
      const float dy = yi - y[j];
      const float h = -((si - s[j]) * dy);
      // `h < 0 ? 0 : h` rather than max(0, h), so a NaN score reaches
      // the loss value.
      ph[j] = h < 0.0f ? 0.0f : h;
      pa[j] = h > 0.0f ? dy : 0.0f;
    }
    double loss = 0;
    double grad = 0;
    for (int64_t j = 0; j < n; ++j) {
      loss += ph[j];
      grad += pa[j];
    }
    row_loss[i] = loss;
    if (row_grad != nullptr) row_grad[i] = grad;
  }
}

const KernelSet kReferenceSet = {
    /*name=*/"reference",
    /*supported=*/AlwaysSupported,
    /*add=*/AddRef,
    /*sub=*/SubRef,
    /*mul=*/MulRef,
    /*div=*/DivRef,
    /*vmax=*/MaxRef,
    /*vmin=*/MinRef,
    /*add_scalar=*/AddScalarRef,
    /*mul_scalar=*/MulScalarRef,
    /*relu=*/ReluRef,
    /*leaky_relu=*/LeakyReluRef,
    /*matmul_rows=*/MatMulRowsRef,
    /*softmax_rows=*/SoftmaxRowsRef,
    /*transpose_rows=*/TransposeRowsRef,
    /*ts_forward_rows=*/TsForwardRowsRef,
    /*ts_grad_entries_rows=*/TsGradEntriesRowsRef,
    /*ts_grad_x_rows=*/TsGradXRowsRef,
    /*pairwise_hinge_rows=*/PairwiseHingeRowsRef,
    /*matmul_span=*/"tensor.MatMul",
    /*batch_matmul_span=*/"tensor.BatchMatMul",
    /*softmax_span=*/"tensor.Softmax",
};

}  // namespace

const KernelSet& Reference() { return kReferenceSet; }

}  // namespace rtgcn::kernels
