// Runtime-dispatched tensor kernel backends.
//
// A KernelSet is a table of function pointers covering the numeric hot
// paths: the contiguous elementwise loops, row-panel matmul, fused
// last-axis softmax, 2-d transpose, the Eq. 5 relational lanes of
// graph::SparseTimeSensitivePropagate, the pairwise-hinge row sums of
// ag::PairwiseRankingLoss and nn::TemporalConvBlock's node-major forward and
// backward. Two sets are registered:
//
//  * reference — the original scalar loops. Always available; the ground
//    truth every other variant is checked against (tests/kernel_checker.h).
//  * avx2 — AVX2/FMA kernels, used only when CPUID reports AVX2+FMA:
//    kernels/avx2.cc (-mavx2 -mfma) holds the elementwise, matmul, softmax
//    and transpose kernels; kernels/avx2_exact.cc (-mavx2 -mfma
//    -ffp-contract=off) holds the relational-lane, loss and temporal-block
//    kernels.
//
// Selection happens once, lazily, from the RTGCN_KERNEL environment
// variable ("reference" | "avx2" | "auto", default auto = best supported),
// and can be overridden programmatically (SetBackend). Requesting avx2 on a
// CPU without it falls back to reference; an unknown name warns and falls
// back to auto. The active choice is published to obs::Registry::Global()
// (gauges tensor.kernels.backend / tensor.kernels.avx2_supported, counters
// tensor.kernels.selected.<name>) and to span tags: each set carries its
// own static span names ("tensor.MatMul[avx2]", ...) so traces show which
// backend ran.
//
// Determinism contract: every kernel, on every backend, must produce
// bit-identical results at any thread count. Callers partition work with
// ParallelFor into row panels / contiguous spans; a kernel's output for a
// given element may depend only on the element's absolute position and the
// problem shape — never on the panel boundaries it happened to be called
// with (the temporal-block backward's parameter gradients are per-range
// accumulators, so its caller fixes the ranges from N alone). Across
// backends, the elementwise, transpose, relational-lane, pairwise-hinge and
// temporal-block kernels run the reference's IEEE operation sequence in
// every lane and match it bit for bit; matmul (FMA) and softmax
// (vectorized exp) may differ from it in the last bits, which is why the
// checker compares those with an epsilon.
#ifndef RTGCN_TENSOR_KERNELS_KERNELS_H_
#define RTGCN_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace rtgcn::kernels {

/// Contiguous binary elementwise: o[i] = f(a[i], b[i]) for i in [0, n).
using BinaryFn = void (*)(const float* a, const float* b, float* o,
                          int64_t n);
/// Contiguous scalar elementwise: o[i] = f(a[i], s).
using ScalarFn = void (*)(const float* a, float s, float* o, int64_t n);
/// Contiguous unary elementwise: o[i] = f(a[i]).
using UnaryFn = void (*)(const float* a, float* o, int64_t n);

/// Lanes per block of the relational conv's node-major time layout: T is
/// zero-padded to a multiple of this.
inline constexpr int64_t kTimeLanes = 8;

/// \brief CSR operands of the Eq. 5 relational lanes
/// (graph::SparseTimeSensitivePropagate). Node tensors are node-major
/// [N, d, t_stride], all T steps of one (node, feature) contiguous, pad
/// lanes zero; per-entry tensors are [nnz, t_stride]. Arrays are those of
/// graph::CsrGraph.
struct TimeLaneGraph {
  const int64_t* row_ptr;  ///< [N+1] row i owns [row_ptr[i], row_ptr[i+1])
  const int32_t* col;      ///< [nnz] neighbor j of each entry
  const int32_t* rev;      ///< [nnz] opposite directed entry
  const float* coeff;      ///< [nnz] normalization coefficient
  int64_t d;               ///< features per node
  int64_t t_steps;         ///< T
  int64_t t_stride;        ///< T padded to a multiple of kTimeLanes
};

/// \brief Geometry and parameters of nn::TemporalConvBlock's fused op for
/// the node-major block kernels.
///
/// x is time-major [T, N, in]; node j's taps read its rows x[t, j, :] in
/// place. Every [.., lanes] buffer holds the F output channels padded with
/// zeros to a multiple of 8 lanes ([.., in_lanes] likewise for the input
/// channels). For one node, in IEEE float:
///
///   z1[r] = (0 + Σ_{i<k, tap1[r,i] ≥ 0} Σ_{c<in} x[tap1[r,i], c] · w1[i,c])
///           + b1,                    summed in (i, c) order, r < rows1
///   h1[r] = relu(z1[r]) · mask1
///   z2[m] = (0 + Σ_{i, tap2[m,i] ≥ 0} Σ_{c<F} h1[tap2[m,i], c] · w2[i,c])
///           + b2,                    m < rows2
///   res[m] = (0 + Σ_{c<in} x[res_time[m], c] · wr[c]) + br, or
///            x[res_time[m]] when wr is null (identity, in == F)
///   y[m]  = relu(relu(z2[m]) · mask2 + res[m])
///
/// relu(v) = v > 0 ? v : 0, and each product is one multiply then one add
/// (no fused multiply-add).
struct TemporalBlockPlan {
  int64_t t_len;     ///< T, x rows per node
  int64_t n;         ///< nodes N
  int64_t in;        ///< input channels
  int64_t out;       ///< output channels F
  int64_t lanes;     ///< F rounded up to a multiple of 8
  int64_t in_lanes;  ///< in rounded up to a multiple of 8
  int64_t k;         ///< taps per conv
  int64_t rows1;     ///< conv1 output times computed (those conv2 reads)
  int64_t rows2;     ///< block output times
  const int64_t* tap1;      ///< [rows1, k] x time per tap, -1 before time 0
  const int64_t* tap2;      ///< [rows2, k] conv1 row per tap, -1 likewise
  const int64_t* res_time;  ///< [rows2] x time of each residual row
  const float* w1;     ///< [k, in, lanes] conv1 filter, weight norm applied
  const float* b1;     ///< [lanes]
  const float* mask1;  ///< [lanes] dropout multipliers (1 when off)
  const float* w2;     ///< [k, F, lanes]
  const float* b2;     ///< [lanes]
  const float* mask2;  ///< [lanes]
  const float* wr;     ///< [in, lanes] residual projection; null = identity
  const float* br;     ///< [lanes]
  // The filters transposed for the input gradients (backward only).
  const float* w1t;  ///< [k, F, in_lanes]
  const float* w2t;  ///< [k, F, lanes]
  const float* wrt;  ///< [F, in_lanes]
};

/// Parameter-gradient accumulators of the block backward, in the plan's
/// padded layouts. The kernel adds into them.
struct TemporalBlockGrads {
  float* w1;  ///< [k, in, lanes]
  float* b1;  ///< [lanes]
  float* w2;  ///< [k, F, lanes]
  float* b2;  ///< [lanes]
  float* wr;  ///< [in, lanes], untouched for an identity residual
  float* br;  ///< [lanes], likewise
};

/// \brief One interchangeable kernel backend.
struct KernelSet {
  const char* name;      ///< "reference", "avx2"
  bool (*supported)();   ///< runtime CPU capability check

  // Fused contiguous elementwise loops (same-shape fast path of the
  // broadcasting ops plus the scalar/unary ops built on them).
  BinaryFn add;
  BinaryFn sub;
  BinaryFn mul;
  BinaryFn div;
  BinaryFn vmax;
  BinaryFn vmin;
  ScalarFn add_scalar;
  ScalarFn mul_scalar;
  UnaryFn relu;
  ScalarFn leaky_relu;  ///< s = negative slope

  /// Row-panel GEMM: C[i,:] += A[i,:] * B for i in [row_lo, row_hi).
  /// A is [m,k], B is [k,n], C is [m,n]; pointers are to full matrices.
  void (*matmul_rows)(const float* a, const float* b, float* c,
                      int64_t row_lo, int64_t row_hi, int64_t k, int64_t n);

  /// Fused numerically-stable softmax over the last axis: rows
  /// [row_lo, row_hi) of a [rows, cols] row-major view.
  void (*softmax_rows)(const float* in, float* out, int64_t row_lo,
                       int64_t row_hi, int64_t cols);

  /// 2-d transpose: out[j, i] = in[i, j] for i in [row_lo, row_hi),
  /// in is [m, n], out is [n, m].
  void (*transpose_rows)(const float* in, float* out, int64_t row_lo,
                         int64_t row_hi, int64_t m, int64_t n);

  // Eq. 5 relational lanes over rows [row_lo, row_hi). Every lane runs the
  // scalar [T, N, D] sequence: a D-sum from 0 in feature order (one mul,
  // then one add), then scaling, entries accumulated in CSR order.

  /// Forward: for each entry e = (i, j), corr[e,:] = c · Σ_k x_i[k] ⊙ x_j[k]
  /// and y_i[k] += (as[e] · corr[e,:]) ⊙ x_j[k]. Writes corr's entries of
  /// the rows and yn's rows (pad lanes included).
  void (*ts_forward_rows)(const TimeLaneGraph& g, const float* xn,
                          const float* as, float c, int64_t row_lo,
                          int64_t row_hi, float* corr, float* yn);

  /// Backward entry pass: gx[e,:] = Σ_k g_i[k] ⊙ x_j[k], stored when gx is
  /// not null; when ds is not null, ds[e] = (Σ_{t<T} corr[e,t] · gx[e,t],
  /// summed in t order from 0) · coeff[e] for every entry of the rows.
  void (*ts_grad_entries_rows)(const TimeLaneGraph& g, const float* gn,
                               const float* xn, const float* corr,
                               int64_t row_lo, int64_t row_hi, float* gx,
                               float* ds);

  /// Backward dx pass: for each entry e = (m, j) with r = rev[e],
  /// dx_m[k] += (as[r] · corr[r]) ⊙ g_j[k] +
  ///            (as[e]·c · gx[e] + coeff[r]·s[e]·c · gx[r]) ⊙ x_j[k].
  /// Writes dxn's rows (pad lanes included).
  void (*ts_grad_x_rows)(const TimeLaneGraph& g, const float* gn,
                         const float* xn, const float* corr, const float* gx,
                         const float* as, const float* s, float c,
                         int64_t row_lo, int64_t row_hi, float* dxn);

  /// Pairwise hinge row sums over rows [row_lo, row_hi) of n scores:
  /// h_ij = -((s_i - s_j)(y_i - y_j)), row_loss[i] = Σ_j (h_ij < 0 ? 0 : h_ij)
  /// and, when row_grad is not null, row_grad[i] = Σ_j (h_ij > 0 ? y_i - y_j
  /// : 0), each a double chain in ascending j.
  void (*pairwise_hinge_rows)(const float* s, const float* y, int64_t n,
                              int64_t row_lo, int64_t row_hi,
                              double* row_loss, double* row_grad);

  // nn::TemporalConvBlock over nodes [lo, hi) (TemporalBlockPlan has the
  // forward formulas). A node's result does not depend on which other
  // nodes share the call.

  /// Forward: writes y [rows2, N, F] rows of the nodes and, when not null,
  /// saves z1 [N, rows1, lanes] and z2 [N, rows2, lanes].
  void (*temporal_block_forward_rows)(const TemporalBlockPlan& p,
                                      const float* x, int64_t lo, int64_t hi,
                                      float* y, float* z1, float* z2);

  /// Backward from g = dL/dy [rows2, N, F], with the forward's y, z1, z2.
  /// Per node: gy = g · (y > 0 ? 1 : 0); gz2 = (gy · mask2) · (z2 > 0 ?
  /// 1 : 0); gh1 sums Σ_{o<F} gz2[o] · w2t[i,o] per conv2 tap (from 0 in
  /// o order, then added to the tap's row in (m, i) order); gz1 = (gh1 ·
  /// mask1) · (z1 > 0 ? 1 : 0). Each parameter gradient adds its terms
  /// (x or h1 times gz, or gz alone) in (node, row) order. When dx is not
  /// null the nodes' dx [T, N, in] rows are written: from 0, each conv1
  /// tap's Σ_o gz1[o] · w1t[i,o] in (r, i) order, then each residual row's
  /// Σ_o gy[o] · wrt[o] (or gy itself for an identity residual).
  void (*temporal_block_backward_rows)(const TemporalBlockPlan& p,
                                       const float* x, const float* y,
                                       const float* z1, const float* z2,
                                       const float* g, int64_t lo,
                                       int64_t hi,
                                       const TemporalBlockGrads& grads,
                                       float* dx);

  // Static span names (obs::Span stores the pointer, never a copy) tagging
  // traces with the backend that executed the op.
  const char* matmul_span;
  const char* batch_matmul_span;
  const char* softmax_span;
};

enum class Backend : int { kReference = 0, kAvx2 = 1 };

/// The scalar ground-truth backend (always supported).
const KernelSet& Reference();

/// The AVX2/FMA backend. Defined on every build; `supported()` reports
/// whether this CPU (and this build's compiler) can actually run it.
const KernelSet& Avx2();

/// Every registered backend, reference first. The kernel checker iterates
/// this list; future variants (quantized, AVX-512) register here.
const std::vector<const KernelSet*>& AllKernels();

/// True when the CPU reports AVX2 and FMA and the build has the AVX2 TU.
bool CpuSupportsAvx2();

/// Test hook: 0/1 forces the reported AVX2 support, -1 restores real
/// CPUID detection. Affects Resolve/SetBackend fallback, not AllKernels().
void OverrideCpuSupportsAvx2ForTest(int forced);

/// Parses a backend name: "reference", "avx2", "auto" or "" (= auto).
/// "auto" resolves to avx2 when supported, else reference. An explicit
/// "avx2" on an unsupported CPU gracefully degrades to reference. Unknown
/// names -> InvalidArgument.
Result<Backend> ResolveBackend(const std::string& name);

/// The active kernel set. First use initializes from the RTGCN_KERNEL
/// environment variable (invalid values warn and fall back to auto).
const KernelSet& Active();
Backend ActiveBackend();

/// Explicitly selects a backend and publishes the choice to the global
/// metrics registry.
void SetBackend(Backend backend);

/// Test hook: drops the cached selection so the next Active() re-reads
/// RTGCN_KERNEL from the environment.
void ReinitFromEnvForTest();

}  // namespace rtgcn::kernels

#endif  // RTGCN_TENSOR_KERNELS_KERNELS_H_
