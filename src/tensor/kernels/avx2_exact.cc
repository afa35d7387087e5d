// AVX2 relational-lane and pairwise-hinge kernels. This TU is compiled with
// -mavx2 -mfma -ffp-contract=off (src/tensor/CMakeLists.txt). The last flag
// is load-bearing: without it GCC fuses _mm256_add_ps(acc,
// _mm256_mul_ps(a, b)) into one vfmadd, whose single rounding differs from
// the reference's mul-then-add. Every lane runs the reference loop's IEEE
// operation sequence in the same order; only which lanes share a register
// changes, so the outputs equal reference.cc's bit for bit.
//
// The TU uses no standard-library templates (containers, algorithms): an
// out-of-line copy of one instantiated here is compiled with -mavx2, and
// the linker may keep that copy for the baseline-ISA TUs as well.
#include "tensor/kernels/avx2_exact.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/kernels/avx2_transpose.h"

namespace rtgcn::kernels::avx2_exact {
namespace {

// Heap floats owned for one kernel call (see the note above on templates).
class Scratch {
 public:
  explicit Scratch(int64_t n) : p_(new float[static_cast<size_t>(n)]) {}
  ~Scratch() { delete[] p_; }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  float* get() const { return p_; }

 private:
  float* p_;
};

inline int64_t Min(int64_t a, int64_t b) { return a < b ? a : b; }

// ---------------------------------------------------------------------------
// Eq. 5 relational lanes
// ---------------------------------------------------------------------------
//
// Each kernel walks a row's entries once, doing all of an entry's 8-lane
// time blocks before the next entry. A kernel is instantiated for the hot
// shape with D and the block count fixed at compile time (D = 4, T₈ = 16:
// the model's first layer), where the row's accumulators stay in
// registers, and once with both read at run time, where they live in the
// output row. A lane's operation sequence is the reference's either way.
// The Impl functions take the graph by value, so the compiler need not
// reload its array pointers after every output store.

// D and the number of 8-lane blocks per node: compile-time when kD and
// kBlocks are non-zero, else read from the graph.
template <int kD, int kBlocks>
struct LaneShape {
  explicit LaneShape(const TimeLaneGraph& g)
      : d(kD > 0 ? kD : g.d),
        blocks(kBlocks > 0 ? kBlocks : g.t_stride / kTimeLanes),
        t_stride(kBlocks > 0 ? kBlocks * kTimeLanes : g.t_stride) {}
  int64_t d;
  int64_t blocks;
  int64_t t_stride;
};

// Σ_k a[k·t_stride] ⊙ b[k·t_stride] over one block, from a zero
// accumulator in k order (the reference's LaneDot).
inline __m256 LaneDot(const float* a, const float* b, int64_t d,
                      int64_t t_stride) {
  __m256 acc = _mm256_setzero_ps();
  for (int64_t k = 0; k < d; ++k) {
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(a + k * t_stride),
                                           _mm256_loadu_ps(b + k * t_stride)));
  }
  return acc;
}

// One node's [d, t_stride] accumulators, zeroed on construction: registers
// for the compile-time shape, else the node's output lanes themselves.
template <int kD, int kBlocks>
class NodeAccumulators {
 public:
  NodeAccumulators(float* out, const LaneShape<kD, kBlocks>& /*shape*/)
      : out_(out) {
    for (auto& block : acc_) {
      for (__m256& v : block) v = _mm256_setzero_ps();
    }
  }
  void Add(int64_t blk, int64_t k, __m256 v) {
    acc_[blk][k] = _mm256_add_ps(acc_[blk][k], v);
  }
  void Store() {
    for (int blk = 0; blk < kBlocks; ++blk) {
      for (int k = 0; k < kD; ++k) {
        _mm256_storeu_ps(out_ + k * kBlocks * kTimeLanes + blk * kTimeLanes,
                         acc_[blk][k]);
      }
    }
  }

 private:
  float* out_;
  __m256 acc_[kBlocks][kD];
};

template <>
class NodeAccumulators<0, 0> {
 public:
  NodeAccumulators(float* out, const LaneShape<0, 0>& shape)
      : out_(out), t_stride_(shape.t_stride) {
    for (int64_t l = 0; l < shape.d * shape.t_stride; l += kTimeLanes) {
      _mm256_storeu_ps(out + l, _mm256_setzero_ps());
    }
  }
  void Add(int64_t blk, int64_t k, __m256 v) {
    float* o = out_ + k * t_stride_ + blk * kTimeLanes;
    _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(o), v));
  }
  void Store() {}

 private:
  float* out_;
  int64_t t_stride_;
};

template <int kD, int kBlocks>
void TsForwardRowsImpl(TimeLaneGraph g, const float* xn,
                       const float* as, float c, int64_t row_lo,
                       int64_t row_hi, float* corr, float* yn) {
  const LaneShape<kD, kBlocks> shape(g);
  const int64_t d = shape.d;
  const int64_t t_stride = shape.t_stride;
  const __m256 vc = _mm256_set1_ps(c);
  for (int64_t i = row_lo; i < row_hi; ++i) {
    const float* xi = xn + i * d * t_stride;
    NodeAccumulators<kD, kBlocks> y(yn + i * d * t_stride, shape);
    for (int64_t e = g.row_ptr[i]; e < g.row_ptr[i + 1]; ++e) {
      const float* xj = xn + static_cast<int64_t>(g.col[e]) * d * t_stride;
      const __m256 va = _mm256_set1_ps(as[e]);
      for (int64_t blk = 0; blk < shape.blocks; ++blk) {
        const int64_t l = blk * kTimeLanes;
        const __m256 cv =
            _mm256_mul_ps(vc, LaneDot(xi + l, xj + l, d, t_stride));
        const __m256 pv = _mm256_mul_ps(va, cv);
        for (int64_t k = 0; k < d; ++k) {
          y.Add(blk, k,
                _mm256_mul_ps(pv, _mm256_loadu_ps(xj + k * t_stride + l)));
        }
        // Stored last, so no store separates the two reads of x_j.
        _mm256_storeu_ps(corr + e * t_stride + l, cv);
      }
    }
    y.Store();
  }
}

// ds of 8 consecutive entries: prod holds each entry's corr ⊙ gx lanes,
// t_stride apart. An 8x8 register transpose per block turns them into one
// vector per t carrying the 8 entries side by side, so each entry's Σ_t
// chain runs in t order from 0 in its own lane; then · coeff.
template <int kD, int kBlocks>
inline void Ds8(const float* prod, const LaneShape<kD, kBlocks>& shape,
                int64_t t_steps, const float* coeff, float* ds) {
  __m256 sum = _mm256_setzero_ps();
  for (int64_t blk = 0; blk < shape.blocks; ++blk) {
    __m256 col[kTimeLanes];
    for (int64_t r = 0; r < kTimeLanes; ++r) {
      col[r] = _mm256_loadu_ps(prod + r * shape.t_stride + blk * kTimeLanes);
    }
    Transpose8x8(col);
    const int64_t live = Min(kTimeLanes, t_steps - blk * kTimeLanes);
    for (int64_t t = 0; t < live; ++t) sum = _mm256_add_ps(sum, col[t]);
  }
  _mm256_storeu_ps(ds, _mm256_mul_ps(sum, _mm256_loadu_ps(coeff)));
}

template <int kD, int kBlocks>
void TsGradEntriesRowsImpl(TimeLaneGraph g, const float* gn,
                           const float* xn, const float* corr, int64_t row_lo,
                           int64_t row_hi, float* gx, float* ds) {
  const LaneShape<kD, kBlocks> shape(g);
  const int64_t d = shape.d;
  const int64_t t_stride = shape.t_stride;
  const Scratch prod(kTimeLanes * t_stride);
  int64_t batch_begin = g.row_ptr[row_lo];
  int64_t batch = 0;
  for (int64_t i = row_lo; i < row_hi; ++i) {
    const float* gi = gn + i * d * t_stride;
    for (int64_t e = g.row_ptr[i]; e < g.row_ptr[i + 1]; ++e) {
      const float* xj = xn + static_cast<int64_t>(g.col[e]) * d * t_stride;
      for (int64_t blk = 0; blk < shape.blocks; ++blk) {
        const int64_t l = blk * kTimeLanes;
        const __m256 v = LaneDot(gi + l, xj + l, d, t_stride);
        if (gx != nullptr) _mm256_storeu_ps(gx + e * t_stride + l, v);
        if (ds != nullptr) {
          _mm256_storeu_ps(
              prod.get() + batch * t_stride + l,
              _mm256_mul_ps(_mm256_loadu_ps(corr + e * t_stride + l), v));
        }
      }
      if (ds != nullptr && ++batch == kTimeLanes) {
        Ds8(prod.get(), shape, g.t_steps, g.coeff + batch_begin,
            ds + batch_begin);
        batch_begin += kTimeLanes;
        batch = 0;
      }
    }
  }
  // Fewer than 8 entries left: the same chains, one at a time.
  for (int64_t b = 0; b < batch; ++b) {
    const float* pb = prod.get() + b * t_stride;
    float sum = 0.0f;
    for (int64_t t = 0; t < g.t_steps; ++t) sum += pb[t];
    ds[batch_begin + b] = sum * g.coeff[batch_begin + b];
  }
}

template <int kD, int kBlocks>
void TsGradXRowsImpl(TimeLaneGraph g, const float* gn, const float* xn,
                     const float* corr, const float* gx, const float* as,
                     const float* s, float c, int64_t row_lo, int64_t row_hi,
                     float* dxn) {
  const LaneShape<kD, kBlocks> shape(g);
  const int64_t d = shape.d;
  const int64_t t_stride = shape.t_stride;
  for (int64_t m = row_lo; m < row_hi; ++m) {
    NodeAccumulators<kD, kBlocks> dx(dxn + m * d * t_stride, shape);
    for (int64_t e = g.row_ptr[m]; e < g.row_ptr[m + 1]; ++e) {
      const int64_t j = g.col[e];
      const int64_t r = g.rev[e];
      const __m256 a2 = _mm256_set1_ps(as[e] * c);
      const __m256 a3 = _mm256_set1_ps(g.coeff[r] * s[e] * c);
      const __m256 ar = _mm256_set1_ps(as[r]);
      const float* gj = gn + j * d * t_stride;
      const float* xj = xn + j * d * t_stride;
      for (int64_t blk = 0; blk < shape.blocks; ++blk) {
        const int64_t l = blk * kTimeLanes;
        const __m256 p_rev =
            _mm256_mul_ps(ar, _mm256_loadu_ps(corr + r * t_stride + l));
        const __m256 coef = _mm256_add_ps(
            _mm256_mul_ps(a2, _mm256_loadu_ps(gx + e * t_stride + l)),
            _mm256_mul_ps(a3, _mm256_loadu_ps(gx + r * t_stride + l)));
        for (int64_t k = 0; k < d; ++k) {
          dx.Add(blk, k,
                 _mm256_add_ps(
                     _mm256_mul_ps(p_rev,
                                   _mm256_loadu_ps(gj + k * t_stride + l)),
                     _mm256_mul_ps(coef,
                                   _mm256_loadu_ps(xj + k * t_stride + l))));
        }
      }
    }
    dx.Store();
  }
}

// ---------------------------------------------------------------------------
// Pairwise hinge row sums
// ---------------------------------------------------------------------------

// Lanes 0-3 / 4-7 of v widened to double (exact).
inline __m256d LowToDouble(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
inline __m256d HighToDouble(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

// Rows [i, i + 8) of the hinge sums, the lanes at or past `live` masked
// off (never loaded, never stored). Each row's loss and grad are double
// chains over j in ascending order, four rows per __m256d.
template <bool kGrad>
void HingeRows8(const float* s, const float* y, int64_t n, int64_t i,
                int64_t live, double* row_loss, double* row_grad) {
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(live)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256 si = _mm256_maskload_ps(s + i, mask);
  const __m256 yi = _mm256_maskload_ps(y + i, mask);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256d loss_lo = _mm256_setzero_pd(), loss_hi = _mm256_setzero_pd();
  __m256d grad_lo = _mm256_setzero_pd(), grad_hi = _mm256_setzero_pd();
  for (int64_t j = 0; j < n; ++j) {
    const __m256 dy = _mm256_sub_ps(yi, _mm256_set1_ps(y[j]));
    const __m256 h = _mm256_xor_ps(
        _mm256_mul_ps(_mm256_sub_ps(si, _mm256_set1_ps(s[j])), dy), sign);
    // h < 0 ? 0 : h (a NaN h passes through), as in the reference.
    const __m256 ph = _mm256_andnot_ps(_mm256_cmp_ps(h, zero, _CMP_LT_OQ), h);
    loss_lo = _mm256_add_pd(loss_lo, LowToDouble(ph));
    loss_hi = _mm256_add_pd(loss_hi, HighToDouble(ph));
    if constexpr (kGrad) {
      const __m256 pa = _mm256_and_ps(_mm256_cmp_ps(h, zero, _CMP_GT_OQ), dy);
      grad_lo = _mm256_add_pd(grad_lo, LowToDouble(pa));
      grad_hi = _mm256_add_pd(grad_hi, HighToDouble(pa));
    }
  }
  alignas(32) double out[2 * kTimeLanes];
  _mm256_store_pd(out, loss_lo);
  _mm256_store_pd(out + 4, loss_hi);
  _mm256_store_pd(out + 8, grad_lo);
  _mm256_store_pd(out + 12, grad_hi);
  for (int64_t l = 0; l < live; ++l) {
    row_loss[i + l] = out[l];
    if constexpr (kGrad) row_grad[i + l] = out[8 + l];
  }
}

template <bool kGrad>
void PairwiseHingeRowsImpl(const float* s, const float* y, int64_t n,
                           int64_t row_lo, int64_t row_hi, double* row_loss,
                           double* row_grad) {
  for (int64_t i = row_lo; i < row_hi; i += 8) {
    HingeRows8<kGrad>(s, y, n, i, Min(8, row_hi - i), row_loss, row_grad);
  }
}

// The compile-time instantiation serves D = 4 over 16 lanes (T in 9..16).
bool HotShape(const TimeLaneGraph& g) { return g.d == 4 && g.t_stride == 16; }

}  // namespace

void TsForwardRows(const TimeLaneGraph& g, const float* xn, const float* as,
                   float c, int64_t row_lo, int64_t row_hi, float* corr,
                   float* yn) {
  if (HotShape(g)) {
    TsForwardRowsImpl<4, 2>(g, xn, as, c, row_lo, row_hi, corr, yn);
  } else {
    TsForwardRowsImpl<0, 0>(g, xn, as, c, row_lo, row_hi, corr, yn);
  }
}

void TsGradEntriesRows(const TimeLaneGraph& g, const float* gn,
                       const float* xn, const float* corr, int64_t row_lo,
                       int64_t row_hi, float* gx, float* ds) {
  if (HotShape(g)) {
    TsGradEntriesRowsImpl<4, 2>(g, gn, xn, corr, row_lo, row_hi, gx, ds);
  } else {
    TsGradEntriesRowsImpl<0, 0>(g, gn, xn, corr, row_lo, row_hi, gx, ds);
  }
}

void TsGradXRows(const TimeLaneGraph& g, const float* gn, const float* xn,
                 const float* corr, const float* gx, const float* as,
                 const float* s, float c, int64_t row_lo, int64_t row_hi,
                 float* dxn) {
  if (HotShape(g)) {
    TsGradXRowsImpl<4, 2>(g, gn, xn, corr, gx, as, s, c, row_lo, row_hi, dxn);
  } else {
    TsGradXRowsImpl<0, 0>(g, gn, xn, corr, gx, as, s, c, row_lo, row_hi, dxn);
  }
}

void PairwiseHingeRows(const float* s, const float* y, int64_t n,
                       int64_t row_lo, int64_t row_hi, double* row_loss,
                       double* row_grad) {
  if (row_grad != nullptr) {
    PairwiseHingeRowsImpl<true>(s, y, n, row_lo, row_hi, row_loss, row_grad);
  } else {
    PairwiseHingeRowsImpl<false>(s, y, n, row_lo, row_hi, row_loss, nullptr);
  }
}

}  // namespace rtgcn::kernels::avx2_exact

#endif  // __AVX2__ && __FMA__
