// AVX2/FMA kernel backend. This TU is compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt); nothing here runs unless runtime CPUID
// detection (dispatch.cc) selected this set, so the rest of the build
// stays at the baseline ISA.
//
// Determinism: every element's value depends only on its absolute
// position and the problem shape. The matmul accumulates each output
// element over p in ascending order (one FMA chain per element) with
// column blocks anchored at j=0, so regrouping rows into different
// panels — which is all ParallelFor's chunking can do — cannot change a
// single bit. Softmax rows are independent. Elementwise kernels use only
// exact IEEE lane ops, so vector body and scalar tail agree bitwise. The
// relational-lane, pairwise-hinge and temporal-block kernels of this set
// live in avx2_exact.cc, which is built without FMA contraction.
#include <algorithm>
#include <cmath>

#include "tensor/kernels/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/kernels/avx2_exact.h"
#include "tensor/kernels/avx2_transpose.h"

namespace rtgcn::kernels {
namespace {

bool Avx2Supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

void AddAvx2(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}
void SubAvx2(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}
void MulAvx2(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}
void DivAvx2(const float* a, const float* b, float* o, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_div_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] / b[i];
}
void AddScalarAvx2(const float* a, float s, float* o, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] + s;
}
void MulScalarAvx2(const float* a, float s, float* o, int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}
void ReluAvx2(const float* a, float* o, int64_t n) {
  const __m256 vz = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(a + i), vz));
  }
  for (; i < n; ++i) o[i] = a[i] > 0 ? a[i] : 0.0f;
}
void LeakyReluAvx2(const float* a, float slope, float* o, int64_t n) {
  const __m256 vs = _mm256_set1_ps(slope);
  const __m256 vz = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(a + i);
    const __m256 mask = _mm256_cmp_ps(x, vz, _CMP_GT_OQ);
    _mm256_storeu_ps(o + i,
                     _mm256_blendv_ps(_mm256_mul_ps(x, vs), x, mask));
  }
  for (; i < n; ++i) o[i] = a[i] > 0 ? a[i] : slope * a[i];
}

// ---------------------------------------------------------------------------
// MatMul: register-blocked MR x 16 FMA micro-kernel
// ---------------------------------------------------------------------------

// Accumulates `MR` rows of C (+= A * B) over the full k extent with the
// accumulators held in ymm registers: 2*MR accumulators + 2 B vectors + 1
// broadcast stay within the 16 architectural registers at MR=4.
template <int MR>
void MatMulPanelAvx2(const float* a, const float* b, float* c, int64_t k,
                     int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0[MR], acc1[MR];
    for (int r = 0; r < MR; ++r) {
      acc0[r] = _mm256_loadu_ps(c + r * n + j);
      acc1[r] = _mm256_loadu_ps(c + r * n + j + 8);
    }
    for (int64_t p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_loadu_ps(b + p * n + j);
      const __m256 b1 = _mm256_loadu_ps(b + p * n + j + 8);
      for (int r = 0; r < MR; ++r) {
        const __m256 av = _mm256_set1_ps(a[r * k + p]);
        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
      }
    }
    for (int r = 0; r < MR; ++r) {
      _mm256_storeu_ps(c + r * n + j, acc0[r]);
      _mm256_storeu_ps(c + r * n + j + 8, acc1[r]);
    }
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = _mm256_loadu_ps(c + r * n + j);
    for (int64_t p = 0; p < k; ++p) {
      const __m256 b0 = _mm256_loadu_ps(b + p * n + j);
      for (int r = 0; r < MR; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(a[r * k + p]), b0, acc[r]);
      }
    }
    for (int r = 0; r < MR; ++r) _mm256_storeu_ps(c + r * n + j, acc[r]);
  }
  // Narrow tail (n % 8 >= 4; all of a 4-column product): the same
  // ascending-p FMA chain per element, four columns per __m128.
  for (; j + 4 <= n; j += 4) {
    __m128 acc[MR];
    for (int r = 0; r < MR; ++r) acc[r] = _mm_loadu_ps(c + r * n + j);
    for (int64_t p = 0; p < k; ++p) {
      const __m128 b0 = _mm_loadu_ps(b + p * n + j);
      for (int r = 0; r < MR; ++r) {
        acc[r] = _mm_fmadd_ps(_mm_set1_ps(a[r * k + p]), b0, acc[r]);
      }
    }
    for (int r = 0; r < MR; ++r) _mm_storeu_ps(c + r * n + j, acc[r]);
  }
  // Tail lanes (n % 4): scalar FMA keeps the same ascending-p single
  // rounding per step as the vector chains.
  for (int r = 0; r < MR; ++r) {
    for (int64_t jj = j; jj < n; ++jj) {
      float s = c[r * n + jj];
      for (int64_t p = 0; p < k; ++p) {
        s = std::fma(a[r * k + p], b[p * n + jj], s);
      }
      c[r * n + jj] = s;
    }
  }
}

void MatMulRowsAvx2(const float* a, const float* b, float* c, int64_t row_lo,
                    int64_t row_hi, int64_t k, int64_t n) {
  int64_t i = row_lo;
  for (; i + 4 <= row_hi; i += 4) {
    MatMulPanelAvx2<4>(a + i * k, b, c + i * n, k, n);
  }
  for (; i < row_hi; ++i) {
    MatMulPanelAvx2<1>(a + i * k, b, c + i * n, k, n);
  }
}

// ---------------------------------------------------------------------------
// Softmax: fused shift/exp/normalize with a vectorized exp
// ---------------------------------------------------------------------------

// Cephes-style expf: Cody-Waite range reduction + degree-5 polynomial,
// ~1 ulp relative error over the clamped range. Inputs below the float
// underflow threshold (including -inf) produce exactly 0.
inline __m256 Exp256(__m256 x) {
  const __m256 exp_hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 exp_lo = _mm256_set1_ps(-87.3365447504019f);
  const __m256 underflow = _mm256_cmp_ps(x, exp_lo, _CMP_LT_OQ);
  x = _mm256_min_ps(x, exp_hi);
  x = _mm256_max_ps(x, exp_lo);
  // fx = floor(x / ln2 + 0.5)
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  // x -= fx * ln2, split into a high and a low part for accuracy.
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(0.693359375f)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(-2.12194440e-4f)));
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  // Scale by 2^fx through the exponent bits.
  __m256i e = _mm256_cvtps_epi32(fx);
  e = _mm256_add_epi32(e, _mm256_set1_epi32(127));
  e = _mm256_slli_epi32(e, 23);
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(e));
  return _mm256_andnot_ps(underflow, y);
}

inline float HorizontalSum(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

inline float HorizontalMax(__m256 v) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x55));
  return _mm_cvtss_f32(m);
}

void SoftmaxRowsAvx2(const float* in, float* out, int64_t row_lo,
                     int64_t row_hi, int64_t cols) {
  for (int64_t r = row_lo; r < row_hi; ++r) {
    const float* x = in + r * cols;
    float* y = out + r * cols;
    // Row max (exact under any association).
    float mx;
    int64_t j;
    if (cols >= 8) {
      __m256 vmx = _mm256_loadu_ps(x);
      for (j = 8; j + 8 <= cols; j += 8) {
        vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(x + j));
      }
      mx = HorizontalMax(vmx);
    } else {
      mx = x[0];
      j = 1;
    }
    for (; j < cols; ++j) mx = std::max(mx, x[j]);
    // Shifted exp and sum (8 lane partials + scalar tail, fixed per row).
    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    float sum = 0.0f;
    for (j = 0; j + 8 <= cols; j += 8) {
      const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(x + j), vmx));
      _mm256_storeu_ps(y + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    sum = HorizontalSum(vsum);
    for (; j < cols; ++j) {
      y[j] = std::exp(x[j] - mx);
      sum += y[j];
    }
    // Normalize.
    const __m256 vs = _mm256_set1_ps(sum);
    for (j = 0; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(y + j, _mm256_div_ps(_mm256_loadu_ps(y + j), vs));
    }
    for (; j < cols; ++j) y[j] /= sum;
  }
}

// ---------------------------------------------------------------------------
// Transpose: 8x8 in-register blocks
// ---------------------------------------------------------------------------

// dst[j][i] = src[i][j] for one 8x8 block; src rows are `src_stride`
// apart, dst rows `dst_stride`.
inline void TransposeBlock8x8(const float* src, int64_t src_stride,
                              float* dst, int64_t dst_stride) {
  __m256 r[8];
  for (int64_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * src_stride);
  Transpose8x8(r);
  for (int64_t i = 0; i < 8; ++i) _mm256_storeu_ps(dst + i * dst_stride, r[i]);
}

// Tiled transpose: 8x8 in-register blocks keep both the reads and the
// writes within a cache line per block, fixing the column-strided store
// pattern of the naive loop (pure data movement, so the output is
// bitwise identical to the reference at any tiling).
void TransposeRowsAvx2(const float* in, float* out, int64_t row_lo,
                       int64_t row_hi, int64_t m, int64_t n) {
  int64_t i = row_lo;
  for (; i + 8 <= row_hi; i += 8) {
    int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      TransposeBlock8x8(in + i * n + j, n, out + j * m + i, m);
    }
    for (; j < n; ++j) {
      for (int64_t ii = i; ii < i + 8; ++ii) out[j * m + ii] = in[ii * n + j];
    }
  }
  for (; i < row_hi; ++i) {
    for (int64_t j = 0; j < n; ++j) out[j * m + i] = in[i * n + j];
  }
}

const KernelSet kAvx2Set = {
    /*name=*/"avx2",
    /*supported=*/Avx2Supported,
    /*add=*/AddAvx2,
    /*sub=*/SubAvx2,
    /*mul=*/MulAvx2,
    /*div=*/DivAvx2,
    /*add_scalar=*/AddScalarAvx2,
    /*mul_scalar=*/MulScalarAvx2,
    /*relu=*/ReluAvx2,
    /*leaky_relu=*/LeakyReluAvx2,
    /*matmul_rows=*/MatMulRowsAvx2,
    /*softmax_rows=*/SoftmaxRowsAvx2,
    /*transpose_rows=*/TransposeRowsAvx2,
    /*ts_forward_rows=*/avx2_exact::TsForwardRows,
    /*ts_lift_relu_rows=*/avx2_exact::TsLiftReluRows,
    /*ts_lift_grad_rows=*/avx2_exact::TsLiftGradRows,
    /*ts_grad_entries_rows=*/avx2_exact::TsGradEntriesRows,
    /*ts_grad_x_rows=*/avx2_exact::TsGradXRows,
    /*pairwise_hinge_rows=*/avx2_exact::PairwiseHingeRows,
    /*temporal_block_forward_rows=*/avx2_exact::TemporalBlockForwardRows,
    /*temporal_block_backward_rows=*/avx2_exact::TemporalBlockBackwardRows,
    /*matmul_span=*/"tensor.MatMul[avx2]",
    /*batch_matmul_span=*/"tensor.BatchMatMul[avx2]",
    /*softmax_span=*/"tensor.Softmax[avx2]",
};

}  // namespace

const KernelSet& Avx2() { return kAvx2Set; }

}  // namespace rtgcn::kernels

#else  // !(__AVX2__ && __FMA__): toolchain cannot emit AVX2 — register a
       // stub set that reports unsupported and forwards to the reference
       // kernels so AllKernels() keeps a stable shape.

namespace rtgcn::kernels {
namespace {

bool NeverSupported() { return false; }

KernelSet MakeStub() {
  KernelSet ks = Reference();
  ks.name = "avx2";
  ks.supported = NeverSupported;
  return ks;
}

const KernelSet kAvx2Stub = MakeStub();

}  // namespace

const KernelSet& Avx2() { return kAvx2Stub; }

}  // namespace rtgcn::kernels

#endif
