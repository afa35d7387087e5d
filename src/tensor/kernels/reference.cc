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

// ---------------------------------------------------------------------------
// Temporal conv block
// ---------------------------------------------------------------------------

float ReluOf(float v) { return v > 0 ? v : 0.0f; }
float ReluSlope(float v) { return v > 0 ? 1.0f : 0.0f; }

// acc[l] = Σ_{i<k, taps[i] ≥ 0} Σ_{c<cin} src[taps[i]·stride + c] ·
// w[(i·cin + c)·lanes + l], from 0 in (i, c) order.
void TapSum(const float* src, int64_t stride, const int64_t* taps, int64_t k,
            int64_t cin, const float* w, int64_t lanes, float* acc) {
  std::fill(acc, acc + lanes, 0.0f);
  for (int64_t i = 0; i < k; ++i) {
    if (taps[i] < 0) continue;
    const float* row = src + taps[i] * stride;
    for (int64_t c = 0; c < cin; ++c) {
      const float* wc = w + (i * cin + c) * lanes;
      for (int64_t l = 0; l < lanes; ++l) acc[l] += row[c] * wc[l];
    }
  }
}

// dst[c] += Σ_{o<cout} g[o] · wt[o·cin_lanes + c] for c < cin_lanes, the
// sum from 0 in o order.
void TapGrad(const float* g, const float* wt, int64_t cout, int64_t cin_lanes,
             float* sum, float* dst) {
  std::fill(sum, sum + cin_lanes, 0.0f);
  for (int64_t o = 0; o < cout; ++o) {
    for (int64_t c = 0; c < cin_lanes; ++c) {
      sum[c] += g[o] * wt[o * cin_lanes + c];
    }
  }
  for (int64_t c = 0; c < cin_lanes; ++c) dst[c] += sum[c];
}

// dw[(i·cin + c)·lanes + l] += src[taps[i]·stride + c] · g[l] for every
// tap i that reads a time >= 0.
void TapOuter(const float* src, int64_t stride, const int64_t* taps, int64_t k,
              int64_t cin, const float* g, int64_t lanes, float* dw) {
  for (int64_t i = 0; i < k; ++i) {
    if (taps[i] < 0) continue;
    const float* row = src + taps[i] * stride;
    for (int64_t c = 0; c < cin; ++c) {
      float* wc = dw + (i * cin + c) * lanes;
      for (int64_t l = 0; l < lanes; ++l) wc[l] += row[c] * g[l];
    }
  }
}

constexpr int64_t kTapZero = 0;

void TemporalBlockForwardRowsRef(const TemporalBlockPlan& p, const float* x,
                                 int64_t lo, int64_t hi, float* y, float* z1s,
                                 float* z2s) {
  const int64_t lanes = p.lanes;
  const int64_t xs = p.n * p.in;  // x's time stride
  std::vector<float> z1(static_cast<size_t>(p.rows1 * lanes));
  std::vector<float> h1(static_cast<size_t>(p.rows1 * lanes));
  std::vector<float> z2(static_cast<size_t>(lanes));
  std::vector<float> res(static_cast<size_t>(lanes));
  for (int64_t j = lo; j < hi; ++j) {
    const float* xj = x + j * p.in;
    for (int64_t r = 0; r < p.rows1; ++r) {
      float* zr = z1.data() + r * lanes;
      TapSum(xj, xs, p.tap1 + r * p.k, p.k, p.in, p.w1, lanes, zr);
      for (int64_t l = 0; l < lanes; ++l) {
        zr[l] += p.b1[l];
        h1[static_cast<size_t>(r * lanes + l)] = ReluOf(zr[l]) * p.mask1[l];
      }
    }
    if (z1s != nullptr) {
      std::copy(z1.begin(), z1.end(), z1s + j * p.rows1 * lanes);
    }
    for (int64_t m = 0; m < p.rows2; ++m) {
      TapSum(h1.data(), lanes, p.tap2 + m * p.k, p.k, p.out, p.w2, lanes,
             z2.data());
      for (int64_t l = 0; l < lanes; ++l) z2[l] += p.b2[l];
      if (z2s != nullptr) {
        std::copy(z2.begin(), z2.end(), z2s + (j * p.rows2 + m) * lanes);
      }
      const float* xr = xj + p.res_time[m] * xs;
      if (p.wr != nullptr) {
        TapSum(xr, 0, &kTapZero, 1, p.in, p.wr, lanes, res.data());
        for (int64_t l = 0; l < lanes; ++l) res[l] += p.br[l];
      } else {
        std::copy(xr, xr + p.out, res.begin());
      }
      float* ym = y + (m * p.n + j) * p.out;
      for (int64_t l = 0; l < p.out; ++l) {
        ym[l] = ReluOf(ReluOf(z2[l]) * p.mask2[l] + res[l]);
      }
    }
  }
}

void TemporalBlockBackwardRowsRef(const TemporalBlockPlan& p, const float* x,
                                  const float* y, const float* z1s,
                                  const float* z2s, const float* g,
                                  int64_t lo, int64_t hi,
                                  const TemporalBlockGrads& grads,
                                  float* dx) {
  const int64_t lanes = p.lanes;
  const int64_t in_lanes = p.in_lanes;
  const int64_t xs = p.n * p.in;
  auto buffer = [](int64_t n) {
    return std::vector<float>(static_cast<size_t>(n), 0.0f);
  };
  std::vector<float> gy = buffer(p.rows2 * lanes);
  std::vector<float> h1 = buffer(p.rows1 * lanes);
  std::vector<float> gh1 = buffer(p.rows1 * lanes);
  std::vector<float> gz1 = buffer(p.rows1 * lanes);
  std::vector<float> gz2 = buffer(lanes);
  std::vector<float> sum = buffer(std::max(lanes, in_lanes));
  std::vector<float> dxn = buffer(p.t_len * in_lanes);
  for (int64_t j = lo; j < hi; ++j) {
    const float* xj = x + j * p.in;
    const float* z1 = z1s + j * p.rows1 * lanes;
    const float* z2 = z2s + j * p.rows2 * lanes;
    for (int64_t m = 0; m < p.rows2; ++m) {
      const int64_t at = (m * p.n + j) * p.out;
      for (int64_t l = 0; l < p.out; ++l) {
        gy[static_cast<size_t>(m * lanes + l)] =
            g[at + l] * ReluSlope(y[at + l]);
      }
    }
    for (int64_t i = 0; i < p.rows1 * lanes; ++i) {
      h1[static_cast<size_t>(i)] = ReluOf(z1[i]) * p.mask1[i % lanes];
    }
    std::fill(gh1.begin(), gh1.end(), 0.0f);

    // Residual projection.
    if (p.wr != nullptr) {
      for (int64_t m = 0; m < p.rows2; ++m) {
        const float* gm = gy.data() + m * lanes;
        TapOuter(xj + p.res_time[m] * xs, 0, &kTapZero, 1, p.in, gm, lanes,
                 grads.wr);
        for (int64_t l = 0; l < lanes; ++l) grads.br[l] += gm[l];
      }
    }
    // Conv2 and the gradient of its input h1.
    for (int64_t m = 0; m < p.rows2; ++m) {
      for (int64_t l = 0; l < lanes; ++l) {
        gz2[static_cast<size_t>(l)] =
            (gy[static_cast<size_t>(m * lanes + l)] * p.mask2[l]) *
            ReluSlope(z2[m * lanes + l]);
        grads.b2[l] += gz2[static_cast<size_t>(l)];
      }
      const int64_t* taps = p.tap2 + m * p.k;
      TapOuter(h1.data(), lanes, taps, p.k, p.out, gz2.data(), lanes,
               grads.w2);
      for (int64_t i = 0; i < p.k; ++i) {
        if (taps[i] < 0) continue;
        TapGrad(gz2.data(), p.w2t + i * p.out * lanes, p.out, lanes,
                sum.data(), gh1.data() + taps[i] * lanes);
      }
    }
    // Conv1.
    for (int64_t r = 0; r < p.rows1; ++r) {
      float* gr = gz1.data() + r * lanes;
      for (int64_t l = 0; l < lanes; ++l) {
        gr[l] = (gh1[static_cast<size_t>(r * lanes + l)] * p.mask1[l]) *
                ReluSlope(z1[r * lanes + l]);
        grads.b1[l] += gr[l];
      }
      TapOuter(xj, xs, p.tap1 + r * p.k, p.k, p.in, gr, lanes, grads.w1);
    }
    if (dx == nullptr) continue;
    std::fill(dxn.begin(), dxn.end(), 0.0f);
    for (int64_t r = 0; r < p.rows1; ++r) {
      const int64_t* taps = p.tap1 + r * p.k;
      for (int64_t i = 0; i < p.k; ++i) {
        if (taps[i] < 0) continue;
        TapGrad(gz1.data() + r * lanes, p.w1t + i * p.out * in_lanes, p.out,
                in_lanes, sum.data(), dxn.data() + taps[i] * in_lanes);
      }
    }
    for (int64_t m = 0; m < p.rows2; ++m) {
      const float* gm = gy.data() + m * lanes;
      float* dst = dxn.data() + p.res_time[m] * in_lanes;
      if (p.wr != nullptr) {
        TapGrad(gm, p.wrt, p.out, in_lanes, sum.data(), dst);
      } else {
        for (int64_t c = 0; c < p.in; ++c) dst[c] += gm[c];
      }
    }
    for (int64_t t = 0; t < p.t_len; ++t) {
      std::copy_n(dxn.data() + t * in_lanes, p.in, dx + t * xs + j * p.in);
    }
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
    /*temporal_block_forward_rows=*/TemporalBlockForwardRowsRef,
    /*temporal_block_backward_rows=*/TemporalBlockBackwardRowsRef,
    /*matmul_span=*/"tensor.MatMul",
    /*batch_matmul_span=*/"tensor.BatchMatMul",
    /*softmax_span=*/"tensor.Softmax",
};

}  // namespace

const KernelSet& Reference() { return kReferenceSet; }

}  // namespace rtgcn::kernels
