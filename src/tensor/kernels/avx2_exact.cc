// AVX2 relational-lane, θ-lift, pairwise-hinge and temporal-block kernels.
// This TU is compiled with -mavx2 -mfma -ffp-contract=off
// (src/tensor/CMakeLists.txt).
// The last flag is load-bearing: without it GCC fuses _mm256_add_ps(acc,
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

// Lanes [0, count) of an 8-lane mask set, count in [0, 8].
inline __m256i LaneMask(int64_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

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
        if (corr != nullptr) _mm256_storeu_ps(corr + e * t_stride + l, cv);
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
        // corr[e] = corr[r] (kernels.h), read contiguously.
        const __m256 p_rev =
            _mm256_mul_ps(ar, _mm256_loadu_ps(corr + e * t_stride + l));
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
  const __m256i mask = LaneMask(live);
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

// ---------------------------------------------------------------------------
// Temporal conv block
// ---------------------------------------------------------------------------
//
// Nodes run in groups of kGroup (the last few one at a time): the group's
// rows share every filter load, and its independent sums hide the add
// latency. Channels run in 8-lane blocks, two registers per call (16
// output channels), then one. A node's operation sequence is the
// reference's whatever its group.

constexpr int64_t kGroup = 4;
constexpr int64_t kTapZero = 0;

// Tag naming the number of 8-lane registers one call holds per row.
template <int kB>
struct LaneBlocks {
  static constexpr int value = kB;
};

// Calls fn(LaneBlocks<kB>{}, l0) over [0, lanes) (a multiple of 8): two
// registers while 16 lanes remain, then one.
template <typename Fn>
inline void ForLaneBlocks(int64_t lanes, Fn&& fn) {
  int64_t l0 = 0;
  for (; l0 + 16 <= lanes; l0 += 16) fn(LaneBlocks<2>{}, l0);
  if (l0 < lanes) fn(LaneBlocks<1>{}, l0);
}

// The first `count` lanes of src (the rest read as zero, never loaded).
inline __m256 LoadLanes(const float* src, int64_t count) {
  if (count >= kTimeLanes) return _mm256_loadu_ps(src);
  return _mm256_maskload_ps(src, LaneMask(count));
}

inline void StoreLanes(float* dst, __m256 v, int64_t count) {
  if (count >= kTimeLanes) {
    _mm256_storeu_ps(dst, v);
  } else {
    _mm256_maskstore_ps(dst, LaneMask(count), v);
  }
}

// v > 0 ? v : 0 (a NaN gives 0, -0 gives +0), as the reference's ReluOf.
inline __m256 Relu(__m256 v) { return _mm256_max_ps(v, _mm256_setzero_ps()); }

// v > 0 ? 1 : 0.
inline __m256 ReluSlope(__m256 v) {
  return _mm256_and_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ),
                       _mm256_set1_ps(1.0f));
}

// acc[g][b] = Σ_{i<k, taps[i] ≥ 0} Σ_{c<cin} src[g][taps[i]·stride + c] ·
// w[(i·cin + c)·lanes + 8b], from 0 in (i, c) order (the reference's
// TapSum over kB·8 lanes; w points at the first lane).
template <int kNodes, int kB>
inline void TapSum(const float* const* src, int64_t stride,
                   const int64_t* taps, int64_t k, int64_t cin,
                   const float* w, int64_t lanes, __m256 (&acc)[kNodes][kB]) {
  for (auto& node : acc) {
    for (__m256& v : node) v = _mm256_setzero_ps();
  }
  for (int64_t i = 0; i < k; ++i) {
    if (taps[i] < 0) continue;
    const float* row[kNodes];
    for (int g = 0; g < kNodes; ++g) row[g] = src[g] + taps[i] * stride;
    const float* wi = w + i * cin * lanes;
    for (int64_t c = 0; c < cin; ++c) {
      __m256 wv[kB];
      for (int b = 0; b < kB; ++b) {
        wv[b] = _mm256_loadu_ps(wi + c * lanes + b * kTimeLanes);
      }
      for (int g = 0; g < kNodes; ++g) {
        const __m256 xv = _mm256_set1_ps(row[g][c]);
        for (int b = 0; b < kB; ++b) {
          acc[g][b] = _mm256_add_ps(acc[g][b], _mm256_mul_ps(xv, wv[b]));
        }
      }
    }
  }
}

// dst[g] += Σ_{o<cout} gz[g][o] · wt[o·cin_lanes + 8b], the sum from 0 in o
// order (the reference's TapGrad; wt and dst point at the first lane).
template <int kNodes, int kB>
inline void TapGrad(const float* const* gz, const float* wt, int64_t cout,
                    int64_t cin_lanes, float* const* dst) {
  __m256 sum[kNodes][kB];
  for (auto& node : sum) {
    for (__m256& v : node) v = _mm256_setzero_ps();
  }
  for (int64_t o = 0; o < cout; ++o) {
    __m256 wv[kB];
    for (int b = 0; b < kB; ++b) {
      wv[b] = _mm256_loadu_ps(wt + o * cin_lanes + b * kTimeLanes);
    }
    for (int g = 0; g < kNodes; ++g) {
      const __m256 gv = _mm256_set1_ps(gz[g][o]);
      for (int b = 0; b < kB; ++b) {
        sum[g][b] = _mm256_add_ps(sum[g][b], _mm256_mul_ps(gv, wv[b]));
      }
    }
  }
  for (int g = 0; g < kNodes; ++g) {
    for (int b = 0; b < kB; ++b) {
      float* d = dst[g] + b * kTimeLanes;
      _mm256_storeu_ps(d, _mm256_add_ps(_mm256_loadu_ps(d), sum[g][b]));
    }
  }
}

// dw[(i·cin + c)·lanes + 8b] += src[g][taps[r·k + i]·stride + c] ·
// gz[g][r·lanes + 8b] over nodes g, then rows r < rows, for every tap that
// reads a time >= 0 (the reference's TapOuter per node and row; dw and gz
// point at the first lane). kC input channels run side by side, so kC·kB
// independent sums hide the add latency.
template <int kNodes, int kB, int kC>
inline void TapOuterChannels(const float* const* src, int64_t stride,
                             const int64_t* taps, int64_t k, int64_t i,
                             int64_t c0, int64_t rows, int64_t cin,
                             const float* const* gz, int64_t lanes,
                             float* dw) {
  __m256 acc[kC][kB];
  for (int c = 0; c < kC; ++c) {
    for (int b = 0; b < kB; ++b) {
      acc[c][b] =
          _mm256_loadu_ps(dw + (i * cin + c0 + c) * lanes + b * kTimeLanes);
    }
  }
  for (int g = 0; g < kNodes; ++g) {
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t t = taps[r * k + i];
      if (t < 0) continue;
      const float* row = src[g] + t * stride + c0;
      __m256 gv[kB];
      for (int b = 0; b < kB; ++b) {
        gv[b] = _mm256_loadu_ps(gz[g] + r * lanes + b * kTimeLanes);
      }
      for (int c = 0; c < kC; ++c) {
        const __m256 xv = _mm256_set1_ps(row[c]);
        for (int b = 0; b < kB; ++b) {
          acc[c][b] = _mm256_add_ps(acc[c][b], _mm256_mul_ps(xv, gv[b]));
        }
      }
    }
  }
  for (int c = 0; c < kC; ++c) {
    for (int b = 0; b < kB; ++b) {
      _mm256_storeu_ps(dw + (i * cin + c0 + c) * lanes + b * kTimeLanes,
                       acc[c][b]);
    }
  }
}

template <int kNodes, int kB>
inline void TapOuter(const float* const* src, int64_t stride,
                     const int64_t* taps, int64_t k, int64_t rows,
                     int64_t cin, const float* const* gz, int64_t lanes,
                     float* dw) {
  constexpr int kC = kB == 2 ? 4 : 8;
  for (int64_t i = 0; i < k; ++i) {
    int64_t c = 0;
    for (; c + kC <= cin; c += kC) {
      TapOuterChannels<kNodes, kB, kC>(src, stride, taps, k, i, c, rows, cin,
                                       gz, lanes, dw);
    }
    for (; c < cin; ++c) {
      TapOuterChannels<kNodes, kB, 1>(src, stride, taps, k, i, c, rows, cin,
                                      gz, lanes, dw);
    }
  }
}

// bias[l] += Σ over nodes g, then rows r < rows, of gz[g][r·lanes + l].
template <int kNodes>
inline void BiasGrad(const float* const* gz, int64_t rows, int64_t lanes,
                     float* bias) {
  for (int64_t l = 0; l < lanes; l += kTimeLanes) {
    __m256 acc = _mm256_loadu_ps(bias + l);
    for (int g = 0; g < kNodes; ++g) {
      for (int64_t r = 0; r < rows; ++r) {
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(gz[g] + r * lanes + l));
      }
    }
    _mm256_storeu_ps(bias + l, acc);
  }
}

// Nodes [j0, j0 + kNodes); h1 is [kNodes, rows1, lanes] scratch.
template <int kNodes>
void BlockForwardNodes(const TemporalBlockPlan& p, const float* x, int64_t j0,
                       float* y, float* z1s, float* z2s, float* h1) {
  const int64_t lanes = p.lanes;
  const int64_t xs = p.n * p.in;
  const float* xj[kNodes];
  const float* h1g[kNodes];
  for (int g = 0; g < kNodes; ++g) {
    xj[g] = x + (j0 + g) * p.in;
    h1g[g] = h1 + g * p.rows1 * lanes;
  }
  ForLaneBlocks(lanes, [&](auto blocks, int64_t l0) {
    constexpr int kB = decltype(blocks)::value;
    for (int64_t r = 0; r < p.rows1; ++r) {
      __m256 acc[kNodes][kB];
      TapSum<kNodes, kB>(xj, xs, p.tap1 + r * p.k, p.k, p.in, p.w1 + l0,
                         lanes, acc);
      for (int b = 0; b < kB; ++b) {
        const int64_t l = l0 + b * kTimeLanes;
        const __m256 bias = _mm256_loadu_ps(p.b1 + l);
        const __m256 mask = _mm256_loadu_ps(p.mask1 + l);
        for (int g = 0; g < kNodes; ++g) {
          const __m256 z = _mm256_add_ps(acc[g][b], bias);
          if (z1s != nullptr) {
            _mm256_storeu_ps(z1s + ((j0 + g) * p.rows1 + r) * lanes + l, z);
          }
          _mm256_storeu_ps(h1 + (g * p.rows1 + r) * lanes + l,
                           _mm256_mul_ps(Relu(z), mask));
        }
      }
    }
  });
  ForLaneBlocks(lanes, [&](auto blocks, int64_t l0) {
    constexpr int kB = decltype(blocks)::value;
    for (int64_t m = 0; m < p.rows2; ++m) {
      __m256 acc[kNodes][kB];
      TapSum<kNodes, kB>(h1g, lanes, p.tap2 + m * p.k, p.k, p.out, p.w2 + l0,
                         lanes, acc);
      const float* xr[kNodes];
      for (int g = 0; g < kNodes; ++g) xr[g] = xj[g] + p.res_time[m] * xs;
      __m256 res[kNodes][kB];
      if (p.wr != nullptr) {
        TapSum<kNodes, kB>(xr, 0, &kTapZero, 1, p.in, p.wr + l0, lanes, res);
        for (int b = 0; b < kB; ++b) {
          const __m256 bias = _mm256_loadu_ps(p.br + l0 + b * kTimeLanes);
          for (int g = 0; g < kNodes; ++g) {
            res[g][b] = _mm256_add_ps(res[g][b], bias);
          }
        }
      } else {
        for (int b = 0; b < kB; ++b) {
          const int64_t l = l0 + b * kTimeLanes;
          for (int g = 0; g < kNodes; ++g) {
            res[g][b] = LoadLanes(xr[g] + l, p.out - l);
          }
        }
      }
      for (int b = 0; b < kB; ++b) {
        const int64_t l = l0 + b * kTimeLanes;
        const int64_t count = p.out - l;
        const __m256 bias = _mm256_loadu_ps(p.b2 + l);
        const __m256 mask = _mm256_loadu_ps(p.mask2 + l);
        for (int g = 0; g < kNodes; ++g) {
          const __m256 z = _mm256_add_ps(acc[g][b], bias);
          if (z2s != nullptr) {
            _mm256_storeu_ps(z2s + ((j0 + g) * p.rows2 + m) * lanes + l, z);
          }
          StoreLanes(
              y + (m * p.n + j0 + g) * p.out + l,
              Relu(_mm256_add_ps(_mm256_mul_ps(Relu(z), mask), res[g][b])),
              count);
        }
      }
    }
  });
}

// Per-node scratch of the backward, in floats.
int64_t BackwardScratch(const TemporalBlockPlan& p) {
  return (2 * p.rows2 + 3 * p.rows1) * p.lanes + p.t_len * p.in_lanes;
}

template <int kNodes>
void BlockBackwardNodes(const TemporalBlockPlan& p, const float* x,
                        const float* y, const float* z1s, const float* z2s,
                        const float* g, int64_t j0,
                        const TemporalBlockGrads& grads, float* dx,
                        float* scratch) {
  const int64_t lanes = p.lanes;
  const int64_t in_lanes = p.in_lanes;
  const int64_t xs = p.n * p.in;
  const int64_t k = p.k;
  // Per node: gy [rows2, lanes], gz2 [rows2, lanes], h1, gh1 and gz1
  // [rows1, lanes], dxn [T, in_lanes].
  const float* xj[kNodes];
  float* gy[kNodes];
  float* gz2[kNodes];
  float* h1[kNodes];
  float* gh1[kNodes];
  float* gz1[kNodes];
  float* dxn[kNodes];
  for (int n = 0; n < kNodes; ++n) {
    float* s = scratch + n * BackwardScratch(p);
    xj[n] = x + (j0 + n) * p.in;
    gy[n] = s;
    gz2[n] = gy[n] + p.rows2 * lanes;
    h1[n] = gz2[n] + p.rows2 * lanes;
    gh1[n] = h1[n] + p.rows1 * lanes;
    gz1[n] = gh1[n] + p.rows1 * lanes;
    dxn[n] = gz1[n] + p.rows1 * lanes;
    const float* z1 = z1s + (j0 + n) * p.rows1 * lanes;
    const float* z2 = z2s + (j0 + n) * p.rows2 * lanes;
    for (int64_t l = 0; l < lanes; l += kTimeLanes) {
      const __m256 mask1 = _mm256_loadu_ps(p.mask1 + l);
      const __m256 mask2 = _mm256_loadu_ps(p.mask2 + l);
      for (int64_t m = 0; m < p.rows2; ++m) {
        const int64_t at = (m * p.n + j0 + n) * p.out + l;
        const int64_t count = p.out - l;
        const __m256 gv = _mm256_mul_ps(LoadLanes(g + at, count),
                                        ReluSlope(LoadLanes(y + at, count)));
        _mm256_storeu_ps(gy[n] + m * lanes + l, gv);
        _mm256_storeu_ps(
            gz2[n] + m * lanes + l,
            _mm256_mul_ps(_mm256_mul_ps(gv, mask2),
                          ReluSlope(_mm256_loadu_ps(z2 + m * lanes + l))));
      }
      for (int64_t r = 0; r < p.rows1; ++r) {
        _mm256_storeu_ps(
            h1[n] + r * lanes + l,
            _mm256_mul_ps(Relu(_mm256_loadu_ps(z1 + r * lanes + l)), mask1));
        _mm256_storeu_ps(gh1[n] + r * lanes + l, _mm256_setzero_ps());
      }
    }
  }

  // Residual projection, conv2 and the gradient of its input h1.
  if (p.wr != nullptr) {
    ForLaneBlocks(lanes, [&](auto blocks, int64_t l0) {
      constexpr int kB = decltype(blocks)::value;
      const float* gyl[kNodes];
      for (int n = 0; n < kNodes; ++n) gyl[n] = gy[n] + l0;
      TapOuter<kNodes, kB>(xj, xs, p.res_time, 1, p.rows2, p.in, gyl, lanes,
                           grads.wr + l0);
    });
    BiasGrad<kNodes>(gy, p.rows2, lanes, grads.br);
  }
  BiasGrad<kNodes>(gz2, p.rows2, lanes, grads.b2);
  ForLaneBlocks(lanes, [&](auto blocks, int64_t l0) {
    constexpr int kB = decltype(blocks)::value;
    const float* gzl[kNodes];
    for (int n = 0; n < kNodes; ++n) gzl[n] = gz2[n] + l0;
    TapOuter<kNodes, kB>(h1, lanes, p.tap2, k, p.rows2, p.out, gzl, lanes,
                         grads.w2 + l0);
    for (int64_t m = 0; m < p.rows2; ++m) {
      const float* gm[kNodes];
      for (int n = 0; n < kNodes; ++n) gm[n] = gz2[n] + m * lanes;
      for (int64_t i = 0; i < k; ++i) {
        const int64_t q = p.tap2[m * k + i];
        if (q < 0) continue;
        float* dst[kNodes];
        for (int n = 0; n < kNodes; ++n) dst[n] = gh1[n] + q * lanes + l0;
        TapGrad<kNodes, kB>(gm, p.w2t + i * p.out * lanes + l0, p.out, lanes,
                            dst);
      }
    }
  });

  // Conv1.
  for (int n = 0; n < kNodes; ++n) {
    const float* z1 = z1s + (j0 + n) * p.rows1 * lanes;
    for (int64_t i = 0; i < p.rows1 * lanes; i += kTimeLanes) {
      _mm256_storeu_ps(
          gz1[n] + i,
          _mm256_mul_ps(
              _mm256_mul_ps(_mm256_loadu_ps(gh1[n] + i),
                            _mm256_loadu_ps(p.mask1 + i % lanes)),
              ReluSlope(_mm256_loadu_ps(z1 + i))));
    }
  }
  BiasGrad<kNodes>(gz1, p.rows1, lanes, grads.b1);
  ForLaneBlocks(lanes, [&](auto blocks, int64_t l0) {
    constexpr int kB = decltype(blocks)::value;
    const float* gzl[kNodes];
    for (int n = 0; n < kNodes; ++n) gzl[n] = gz1[n] + l0;
    TapOuter<kNodes, kB>(xj, xs, p.tap1, k, p.rows1, p.in, gzl, lanes,
                         grads.w1 + l0);
  });
  if (dx == nullptr) return;

  for (int n = 0; n < kNodes; ++n) {
    for (int64_t i = 0; i < p.t_len * in_lanes; i += kTimeLanes) {
      _mm256_storeu_ps(dxn[n] + i, _mm256_setzero_ps());
    }
  }
  ForLaneBlocks(in_lanes, [&](auto blocks, int64_t l0) {
    constexpr int kB = decltype(blocks)::value;
    float* dst[kNodes];
    for (int64_t r = 0; r < p.rows1; ++r) {
      const float* gr[kNodes];
      for (int n = 0; n < kNodes; ++n) gr[n] = gz1[n] + r * lanes;
      for (int64_t i = 0; i < k; ++i) {
        const int64_t t = p.tap1[r * k + i];
        if (t < 0) continue;
        for (int n = 0; n < kNodes; ++n) dst[n] = dxn[n] + t * in_lanes + l0;
        TapGrad<kNodes, kB>(gr, p.w1t + i * p.out * in_lanes + l0, p.out,
                            in_lanes, dst);
      }
    }
    for (int64_t m = 0; m < p.rows2; ++m) {
      const float* gm[kNodes];
      for (int n = 0; n < kNodes; ++n) {
        gm[n] = gy[n] + m * lanes;
        dst[n] = dxn[n] + p.res_time[m] * in_lanes + l0;
      }
      if (p.wr != nullptr) {
        TapGrad<kNodes, kB>(gm, p.wrt + l0, p.out, in_lanes, dst);
      } else {
        for (int n = 0; n < kNodes; ++n) {
          for (int b = 0; b < kB; ++b) {
            float* d = dst[n] + b * kTimeLanes;
            _mm256_storeu_ps(
                d, _mm256_add_ps(_mm256_loadu_ps(d),
                                 _mm256_loadu_ps(gm[n] + l0 + b * kTimeLanes)));
          }
        }
      }
    }
  });
  // Time by time, so the group's rows of one time (adjacent in x) are
  // written together.
  for (int64_t t = 0; t < p.t_len; ++t) {
    for (int n = 0; n < kNodes; ++n) {
      float* row = dx + t * xs + (j0 + n) * p.in;
      for (int64_t c = 0; c < p.in; c += kTimeLanes) {
        StoreLanes(row + c, _mm256_loadu_ps(dxn[n] + t * in_lanes + c),
                   p.in - c);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// θ-lift of the relational lanes
// ---------------------------------------------------------------------------
//
// The forward broadcasts each lane value y_i[k, t] against Θ's row k, so a
// time's output channels come out contiguous, in h's time-major row. The
// backward masks dh into a node's dz [t_stride, lanes], then turns each
// 8-time by 8-channel tile of dz around in registers (Transpose8x8): one
// vector per channel carries 8 times, so dz Θᵀ lands in gn's time lanes
// directly. kD fixes d at compile time for the model's first layer (d = 4);
// 0 reads it at run time. Up to four rows k of Θ run side by side.

constexpr int64_t kLiftRows = 4;

// One row of h: relu(Σ_k y[k·t_stride] · Θ[k]) over channels [l0, l0 +
// 8·kB), Θ[k] read from th(k, b).
template <int kB, typename ThetaFn>
inline void LiftRow(const float* y, int64_t d, int64_t t_stride, ThetaFn th,
                    int64_t l0, int64_t out, float* row) {
  __m256 acc[kB];
  for (__m256& v : acc) v = _mm256_setzero_ps();
  for (int64_t k = 0; k < d; ++k) {
    const __m256 yk = _mm256_broadcast_ss(y + k * t_stride);
    for (int b = 0; b < kB; ++b) {
      acc[b] = _mm256_add_ps(acc[b], _mm256_mul_ps(yk, th(k, b)));
    }
  }
  for (int b = 0; b < kB; ++b) {
    const int64_t l = l0 + b * kTimeLanes;
    StoreLanes(row + l, Relu(acc[b]), out - l);
  }
}

// One lane block at a time over the chunk's rows. kD > 0 fixes d at kD and
// holds the block's Θ columns in registers; 0 reloads them per row. Both
// fixed-shape lift instances are timed in EXPERIMENTS.md ("Fixed-shape
// lift kernels").
template <int kD>
void TsLiftReluRowsImpl(const TimeLaneGraph& g, const TimeLaneLift& lift,
                        const float* yn, int64_t row_lo, int64_t row_hi,
                        float* h) {
  const int64_t d = kD > 0 ? kD : g.d;
  const int64_t t_stride = g.t_stride;
  ForLaneBlocks(lift.lanes, [&](auto blocks, int64_t l0) {
    constexpr int kB = decltype(blocks)::value;
    const auto load = [&](int64_t k, int b) {
      return _mm256_loadu_ps(lift.theta + k * lift.lanes + l0 +
                             b * kTimeLanes);
    };
    __m256 held[kD > 0 ? kD : 1][kB];
    if constexpr (kD > 0) {
      for (int k = 0; k < kD; ++k) {
        for (int b = 0; b < kB; ++b) held[k][b] = load(k, b);
      }
    }
    const auto th = [&](int64_t k, int b) {
      if constexpr (kD > 0) {
        return held[k][b];
      } else {
        return load(k, b);
      }
    };
    for (int64_t i = row_lo; i < row_hi; ++i) {
      for (int64_t t = 0; t < g.t_steps; ++t) {
        LiftRow<kB>(yn + i * d * t_stride + t, d, t_stride, th, l0, lift.out,
                    h + (t * lift.n + i) * lift.out);
      }
    }
  });
}

// gn_i's time blocks [blk0, blk0 + kTB) from the channel-major tiles
// (tile + (blk · lanes + f) · 8 holds dz[8·blk .. 8·blk + 7, f]): for each
// row k, Σ_f tile(f) · Θ[k, f] from 0 in f order, lanes t ≥ T zeroed. Up
// to kLiftRows rows at once, so kLiftRows · kTB sums run side by side.
template <int kTB>
inline void LiftBack(const float* tile, const float* theta, int64_t d,
                     int64_t lanes, int64_t t_steps, int64_t t_stride,
                     int64_t blk0, float* gi) {
  __m256 live[kTB];
  for (int b = 0; b < kTB; ++b) {
    live[b] = _mm256_castsi256_ps(LaneMask(t_steps - (blk0 + b) * kTimeLanes));
  }
  for (int64_t k0 = 0; k0 < d; k0 += kLiftRows) {
    const int64_t rows = Min(kLiftRows, d - k0);
    __m256 acc[kLiftRows][kTB];
    for (auto& row : acc) {
      for (__m256& v : row) v = _mm256_setzero_ps();
    }
    for (int64_t f = 0; f < lanes; ++f) {
      __m256 v[kTB];
      for (int b = 0; b < kTB; ++b) {
        v[b] = _mm256_loadu_ps(tile + ((blk0 + b) * lanes + f) * kTimeLanes);
      }
      for (int64_t q = 0; q < rows; ++q) {
        const __m256 th = _mm256_broadcast_ss(theta + (k0 + q) * lanes + f);
        for (int b = 0; b < kTB; ++b) {
          acc[q][b] = _mm256_add_ps(acc[q][b], _mm256_mul_ps(v[b], th));
        }
      }
    }
    for (int64_t q = 0; q < rows; ++q) {
      for (int b = 0; b < kTB; ++b) {
        _mm256_storeu_ps(gi + (k0 + q) * t_stride + (blk0 + b) * kTimeLanes,
                         _mm256_and_ps(acc[q][b], live[b]));
      }
    }
  }
}

// kD > 0 fixes d at kD; kTB > 0 fixes the time blocks at kTB.
template <int kD, int kTB>
void TsLiftGradRowsImpl(const TimeLaneGraph& g, const TimeLaneLift& lift,
                        const float* yn, const float* h, const float* dh,
                        int64_t row_lo, int64_t row_hi, float* gn,
                        float* dtheta) {
  const int64_t d = kD > 0 ? kD : g.d;
  const int64_t t_stride = kTB > 0 ? kTB * kTimeLanes : g.t_stride;
  const int64_t blocks = t_stride / kTimeLanes;
  const int64_t lanes = lift.lanes;
  const Scratch dz(t_stride * lanes);  // rows t >= T stay zero
  const Scratch tile(t_stride * lanes);  // dz channel-major per time block
  for (int64_t l = g.t_steps * lanes; l < t_stride * lanes; l += kTimeLanes) {
    _mm256_storeu_ps(dz.get() + l, _mm256_setzero_ps());
  }
  for (int64_t i = row_lo; i < row_hi; ++i) {
    for (int64_t t = 0; t < g.t_steps; ++t) {
      const int64_t at = (t * lift.n + i) * lift.out;
      for (int64_t l = 0; l < lanes; l += kTimeLanes) {
        const int64_t count = lift.out - l;
        const __m256 slope = ReluSlope(LoadLanes(h + at + l, count));
        _mm256_storeu_ps(dz.get() + t * lanes + l,
                         _mm256_mul_ps(LoadLanes(dh + at + l, count), slope));
      }
    }
    for (int64_t blk = 0; blk < blocks; ++blk) {
      for (int64_t l = 0; l < lanes; l += kTimeLanes) {
        __m256 r[kTimeLanes];
        for (int64_t q = 0; q < kTimeLanes; ++q) {
          r[q] = _mm256_loadu_ps(dz.get() + (blk * kTimeLanes + q) * lanes + l);
        }
        Transpose8x8(r);
        for (int64_t q = 0; q < kTimeLanes; ++q) {
          _mm256_storeu_ps(tile.get() + (blk * lanes + l + q) * kTimeLanes,
                           r[q]);
        }
      }
    }
    float* gi = gn + i * d * t_stride;
    constexpr int kStep = kTB > 0 ? kTB : 1;
    for (int64_t blk = 0; blk < blocks; blk += kStep) {
      LiftBack<kStep>(tile.get(), lift.theta, d, lanes, g.t_steps, t_stride,
                      blk, gi);
    }
    if (dtheta == nullptr) continue;
    const float* yi = yn + i * d * t_stride;
    for (int64_t k0 = 0; k0 < d; k0 += kLiftRows) {
      const int64_t rows = Min(kLiftRows, d - k0);
      ForLaneBlocks(lanes, [&](auto lane_blocks, int64_t l0) {
        constexpr int kB = decltype(lane_blocks)::value;
        __m256 acc[kLiftRows][kB];
        for (int64_t q = 0; q < rows; ++q) {
          for (int b = 0; b < kB; ++b) {
            acc[q][b] = _mm256_loadu_ps(dtheta + (k0 + q) * lanes + l0 +
                                        b * kTimeLanes);
          }
        }
        for (int64_t t = 0; t < g.t_steps; ++t) {
          __m256 dv[kB];
          for (int b = 0; b < kB; ++b) {
            dv[b] = _mm256_loadu_ps(dz.get() + t * lanes + l0 + b * kTimeLanes);
          }
          for (int64_t q = 0; q < rows; ++q) {
            const __m256 y = _mm256_broadcast_ss(yi + (k0 + q) * t_stride + t);
            for (int b = 0; b < kB; ++b) {
              acc[q][b] = _mm256_add_ps(acc[q][b], _mm256_mul_ps(y, dv[b]));
            }
          }
        }
        for (int64_t q = 0; q < rows; ++q) {
          for (int b = 0; b < kB; ++b) {
            _mm256_storeu_ps(dtheta + (k0 + q) * lanes + l0 + b * kTimeLanes,
                             acc[q][b]);
          }
        }
      });
    }
  }
}

// The compile-time instantiation serves D = 4 over 16 lanes (T in 9..16).
bool HotShape(const TimeLaneGraph& g) { return g.d == 4 && g.t_stride == 16; }

}  // namespace

void TemporalBlockForwardRows(const TemporalBlockPlan& p, const float* x,
                              int64_t lo, int64_t hi, float* y, float* z1,
                              float* z2) {
  const Scratch h1(kGroup * p.rows1 * p.lanes);
  int64_t j = lo;
  for (; j + kGroup <= hi; j += kGroup) {
    BlockForwardNodes<kGroup>(p, x, j, y, z1, z2, h1.get());
  }
  for (; j < hi; ++j) BlockForwardNodes<1>(p, x, j, y, z1, z2, h1.get());
}

void TemporalBlockBackwardRows(const TemporalBlockPlan& p, const float* x,
                               const float* y, const float* z1,
                               const float* z2, const float* g, int64_t lo,
                               int64_t hi, const TemporalBlockGrads& grads,
                               float* dx) {
  const Scratch scratch(kGroup * BackwardScratch(p));
  int64_t j = lo;
  for (; j + kGroup <= hi; j += kGroup) {
    BlockBackwardNodes<kGroup>(p, x, y, z1, z2, g, j, grads, dx,
                               scratch.get());
  }
  for (; j < hi; ++j) {
    BlockBackwardNodes<1>(p, x, y, z1, z2, g, j, grads, dx, scratch.get());
  }
}

void TsForwardRows(const TimeLaneGraph& g, const float* xn, const float* as,
                   float c, int64_t row_lo, int64_t row_hi, float* corr,
                   float* yn) {
  if (HotShape(g)) {
    TsForwardRowsImpl<4, 2>(g, xn, as, c, row_lo, row_hi, corr, yn);
  } else {
    TsForwardRowsImpl<0, 0>(g, xn, as, c, row_lo, row_hi, corr, yn);
  }
}

void TsLiftReluRows(const TimeLaneGraph& g, const TimeLaneLift& lift,
                    const float* yn, int64_t row_lo, int64_t row_hi,
                    float* h) {
  if (g.d == 4) {
    TsLiftReluRowsImpl<4>(g, lift, yn, row_lo, row_hi, h);
  } else {
    TsLiftReluRowsImpl<0>(g, lift, yn, row_lo, row_hi, h);
  }
}

void TsLiftGradRows(const TimeLaneGraph& g, const TimeLaneLift& lift,
                    const float* yn, const float* h, const float* dh,
                    int64_t row_lo, int64_t row_hi, float* gn,
                    float* dtheta) {
  if (HotShape(g)) {
    TsLiftGradRowsImpl<4, 2>(g, lift, yn, h, dh, row_lo, row_hi, gn, dtheta);
  } else {
    TsLiftGradRowsImpl<0, 0>(g, lift, yn, h, dh, row_lo, row_hi, gn, dtheta);
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
