#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/kernels/kernels.h"

namespace rtgcn {

int64_t NormalizeAxis(int64_t axis, int64_t ndim) {
  if (axis < 0) axis += ndim;
  RTGCN_CHECK(axis >= 0 && axis < ndim)
      << "axis " << axis << " out of range for rank " << ndim;
  return axis;
}

// ---------------------------------------------------------------------------
// Broadcasting
// ---------------------------------------------------------------------------

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const size_t n = std::max(a.size(), b.size());
  Shape out(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t da = i < n - a.size() ? 1 : a[i - (n - a.size())];
    const int64_t db = i < n - b.size() ? 1 : b[i - (n - b.size())];
    RTGCN_CHECK(da == db || da == 1 || db == 1)
        << "cannot broadcast " << ShapeToString(a) << " with "
        << ShapeToString(b);
    out[i] = std::max(da, db);
  }
  return out;
}

bool BroadcastableTo(const Shape& from, const Shape& to) {
  if (from.size() > to.size()) return false;
  const size_t off = to.size() - from.size();
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i] != to[i + off] && from[i] != 1) return false;
  }
  return true;
}

namespace {

// Minimum elements per chunk for parallel elementwise/copy kernels: small
// enough to split mid-sized tensors, large enough to amortize dispatch.
constexpr int64_t kElemGrain = 8192;

// Approximate multiply-accumulate budget per matmul/reduction chunk.
constexpr int64_t kFlopGrain = 32768;

// Rows (or outer slices) per chunk so each chunk does ~`cost` work units.
int64_t GrainForCost(int64_t per_item_cost) {
  return std::max<int64_t>(1, kFlopGrain / std::max<int64_t>(1, per_item_cost));
}

// Strides of `shape` expanded to rank `out_rank`, with 0 strides on
// broadcast dimensions.
std::vector<int64_t> BroadcastStrides(const Shape& shape,
                                      const Shape& out_shape) {
  const size_t off = out_shape.size() - shape.size();
  std::vector<int64_t> strides(out_shape.size(), 0);
  std::vector<int64_t> own = RowMajorStrides(shape);
  for (size_t i = 0; i < shape.size(); ++i) {
    strides[i + off] = (shape[i] == 1 && out_shape[i + off] != 1) ? 0 : own[i];
  }
  return strides;
}

// True when `row` is [C] or [1, ..., 1, C] and `full` has at least its rank
// and last axis C: `row` then repeats along every leading axis of `full`,
// and the broadcast result has `full`'s shape.
bool IsTrailingRow(const Shape& row, const Shape& full) {
  if (row.empty() || row.size() > full.size() || row.back() != full.back() ||
      row.back() == 0) {
    return false;
  }
  for (size_t i = 0; i + 1 < row.size(); ++i) {
    if (row[i] != 1) return false;
  }
  return true;
}

template <typename BinaryFn>
Tensor BinaryOp(const Tensor& a, const Tensor& b, BinaryFn fn) {
  RTGCN_CHECK(a.defined() && b.defined());
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], pb[i]);
    });
    return out;
  }
  // Fast path: b is a scalar.
  if (b.numel() == 1) {
    const float s = b.data()[0];
    Tensor out(a.shape());
    const float* pa = a.data();
    float* po = out.data();
    ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i], s);
    });
    return out;
  }
  if (a.numel() == 1) {
    const float s = a.data()[0];
    Tensor out(b.shape());
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, b.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = fn(s, pb[i]);
    });
    return out;
  }
  // Fast path: one operand is a row repeated along the other's trailing
  // axis (bias adds, spatial-dropout masks). Each entry is the same single
  // fn call as on the general path, so results are bit-identical.
  const bool b_row = IsTrailingRow(b.shape(), a.shape());
  if (b_row || IsTrailingRow(a.shape(), b.shape())) {
    const Tensor& full = b_row ? a : b;
    const int64_t c = full.shape().back();
    Tensor out(full.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ParallelFor(0, full.numel() / c, std::max<int64_t>(1, kElemGrain / c),
                [&](int64_t lo, int64_t hi) {
                  for (int64_t r = lo; r < hi; ++r) {
                    const int64_t off = r * c;
                    if (b_row) {
                      for (int64_t j = 0; j < c; ++j) {
                        po[off + j] = fn(pa[off + j], pb[j]);
                      }
                    } else {
                      for (int64_t j = 0; j < c; ++j) {
                        po[off + j] = fn(pa[j], pb[off + j]);
                      }
                    }
                  }
                });
    return out;
  }
  // General broadcast path. Each chunk seeds the odometer from its first
  // flat index, so output entries are computed identically at any split.
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out(out_shape);
  const auto sa = BroadcastStrides(a.shape(), out_shape);
  const auto sb = BroadcastStrides(b.shape(), out_shape);
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(0, out.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t> idx(rank, 0);
    int64_t oa = 0;
    int64_t ob = 0;
    int64_t rem = lo;
    for (int64_t d = rank - 1; d >= 0; --d) {
      idx[d] = rem % out_shape[d];
      rem /= out_shape[d];
      oa += idx[d] * sa[d];
      ob += idx[d] * sb[d];
    }
    for (int64_t flat = lo; flat < hi; ++flat) {
      po[flat] = fn(pa[oa], pb[ob]);
      // Odometer increment.
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++idx[d];
        oa += sa[d];
        ob += sb[d];
        if (idx[d] < out_shape[d]) break;
        oa -= sa[d] * out_shape[d];
        ob -= sb[d] * out_shape[d];
        idx[d] = 0;
      }
    }
  });
  return out;
}

template <typename UnaryFn>
Tensor UnaryOp(const Tensor& a, UnaryFn fn) {
  RTGCN_CHECK(a.defined());
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) po[i] = fn(pa[i]);
  });
  return out;
}

// Same-shape contiguous spans through the active kernel backend
// (tensor/kernels/). Chunks are disjoint contiguous ranges, and the
// backends' elementwise lanes are exact IEEE ops, so results stay
// bit-identical at any thread count.
Tensor ContiguousBinary(const Tensor& a, const Tensor& b,
                        kernels::BinaryFn fn) {
  Tensor out(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    fn(pa + lo, pb + lo, po + lo, hi - lo);
  });
  return out;
}

Tensor ScalarMap(const Tensor& a, float s, kernels::ScalarFn fn) {
  RTGCN_CHECK(a.defined());
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    fn(pa + lo, s, po + lo, hi - lo);
  });
  return out;
}

Tensor UnaryMap(const Tensor& a, kernels::UnaryFn fn) {
  RTGCN_CHECK(a.defined());
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    fn(pa + lo, po + lo, hi - lo);
  });
  return out;
}

}  // namespace

Tensor BroadcastTo(const Tensor& t, const Shape& shape) {
  RTGCN_CHECK(BroadcastableTo(t.shape(), shape))
      << ShapeToString(t.shape()) << " -> " << ShapeToString(shape);
  return BinaryOp(Tensor::Zeros(shape), t, [](float, float b) { return b; });
}

Tensor ReduceToShape(const Tensor& t, const Shape& shape) {
  if (t.shape() == shape) return t;
  RTGCN_CHECK(BroadcastableTo(shape, t.shape()))
      << "cannot reduce " << ShapeToString(t.shape()) << " to "
      << ShapeToString(shape);
  Tensor cur = t;
  // Collapse extra leading axes.
  while (cur.ndim() > static_cast<int64_t>(shape.size())) {
    cur = Sum(cur, 0, /*keepdims=*/false);
  }
  // Sum broadcast (size-1) axes.
  for (int64_t i = 0; i < cur.ndim(); ++i) {
    if (shape[i] == 1 && cur.dim(i) != 1) {
      cur = Sum(cur, i, /*keepdims=*/true);
    }
  }
  return cur.Reshape(shape);
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

// The same-shape and scalar fast paths run through the dispatched kernel
// backend (reference or avx2); broadcast shapes keep the generic odometer.
Tensor Add(const Tensor& a, const Tensor& b) {
  RTGCN_CHECK(a.defined() && b.defined());
  const kernels::KernelSet& ks = kernels::Active();
  if (a.shape() == b.shape()) return ContiguousBinary(a, b, ks.add);
  if (b.numel() == 1) return ScalarMap(a, b.data()[0], ks.add_scalar);
  if (a.numel() == 1) return ScalarMap(b, a.data()[0], ks.add_scalar);
  return BinaryOp(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  RTGCN_CHECK(a.defined() && b.defined());
  const kernels::KernelSet& ks = kernels::Active();
  if (a.shape() == b.shape()) return ContiguousBinary(a, b, ks.sub);
  // x - s == x + (-s) bitwise in IEEE arithmetic.
  if (b.numel() == 1) return ScalarMap(a, -b.data()[0], ks.add_scalar);
  return BinaryOp(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  RTGCN_CHECK(a.defined() && b.defined());
  const kernels::KernelSet& ks = kernels::Active();
  if (a.shape() == b.shape()) return ContiguousBinary(a, b, ks.mul);
  if (b.numel() == 1) return ScalarMap(a, b.data()[0], ks.mul_scalar);
  if (a.numel() == 1) return ScalarMap(b, a.data()[0], ks.mul_scalar);
  return BinaryOp(a, b, [](float x, float y) { return x * y; });
}
Tensor Div(const Tensor& a, const Tensor& b) {
  RTGCN_CHECK(a.defined() && b.defined());
  if (a.shape() == b.shape()) {
    return ContiguousBinary(a, b, kernels::Active().div);
  }
  return BinaryOp(a, b, [](float x, float y) { return x / y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  RTGCN_CHECK(a.defined() && b.defined());
  if (a.shape() == b.shape()) {
    return ContiguousBinary(a, b, kernels::Active().vmax);
  }
  return BinaryOp(a, b, [](float x, float y) { return std::max(x, y); });
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  RTGCN_CHECK(a.defined() && b.defined());
  if (a.shape() == b.shape()) {
    return ContiguousBinary(a, b, kernels::Active().vmin);
  }
  return BinaryOp(a, b, [](float x, float y) { return std::min(x, y); });
}

Tensor AddScalar(const Tensor& a, float s) {
  return ScalarMap(a, s, kernels::Active().add_scalar);
}
Tensor MulScalar(const Tensor& a, float s) {
  return ScalarMap(a, s, kernels::Active().mul_scalar);
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}
Tensor Relu(const Tensor& a) {
  return UnaryMap(a, kernels::Active().relu);
}
Tensor LeakyRelu(const Tensor& a, float slope) {
  return ScalarMap(a, slope, kernels::Active().leaky_relu);
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::tanh(x); });
}
Tensor Exp(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::exp(x); });
}
Tensor Log(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::sqrt(x); });
}
Tensor Square(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x * x; });
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::fabs(x); });
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  return UnaryOp(a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}
Tensor Sign(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}

Tensor Map(const Tensor& a, const std::function<float(float)>& fn) {
  return UnaryOp(a, fn);
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

namespace {

// C[m,n] += A[m,k] * B[k,n] through the active kernel backend. Parallel
// over row panels: each output row is produced by exactly one chunk with
// a panel-independent accumulation order, so results are bit-identical
// at any thread count (see tensor/kernels/kernels.h).
void MatMulKernel(const kernels::KernelSet& ks, const float* a,
                  const float* b, float* c, int64_t m, int64_t k,
                  int64_t n) {
  ParallelFor(0, m, GrainForCost(k * n), [&](int64_t row_lo, int64_t row_hi) {
    ks.matmul_rows(a, b, c, row_lo, row_hi, k, n);
  });
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const kernels::KernelSet& ks = kernels::Active();
  obs::Span span(ks.matmul_span, "tensor");
  RTGCN_CHECK_EQ(a.ndim(), 2);
  RTGCN_CHECK_EQ(b.ndim(), 2);
  RTGCN_CHECK_EQ(a.dim(1), b.dim(0))
      << "matmul " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  Tensor out = Tensor::Zeros({m, n});
  MatMulKernel(ks, a.data(), b.data(), out.data(), m, k, n);
  return out;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  const kernels::KernelSet& ks = kernels::Active();
  obs::Span span(ks.batch_matmul_span, "tensor");
  RTGCN_CHECK_EQ(a.ndim(), 3);
  const int64_t batch = a.dim(0);
  const int64_t m = a.dim(1);
  const int64_t k = a.dim(2);
  int64_t n;
  bool shared_b = false;
  if (b.ndim() == 2) {
    RTGCN_CHECK_EQ(b.dim(0), k);
    n = b.dim(1);
    shared_b = true;
  } else {
    RTGCN_CHECK_EQ(b.ndim(), 3);
    RTGCN_CHECK_EQ(b.dim(0), batch);
    RTGCN_CHECK_EQ(b.dim(1), k);
    n = b.dim(2);
  }
  Tensor out = Tensor::Zeros({batch, m, n});
  // Outer parallelism over the batch dim; MatMulKernel's row-panel split
  // runs inline inside pool workers.
  ParallelFor(0, batch, GrainForCost(m * k * n), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* bi = shared_b ? b.data() : b.data() + i * k * n;
      MatMulKernel(ks, a.data() + i * m * k, bi, out.data() + i * m * n, m,
                   k, n);
    }
  });
  return out;
}

Tensor Transpose(const Tensor& a) {
  RTGCN_CHECK_EQ(a.ndim(), 2);
  const kernels::KernelSet& ks = kernels::Active();
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out({n, m});
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, m, GrainForCost(n), [&](int64_t lo, int64_t hi) {
    ks.transpose_rows(pa, po, lo, hi, m, n);
  });
  return out;
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  RTGCN_CHECK_EQ(static_cast<int64_t>(perm.size()), a.ndim());
  Shape out_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) out_shape[i] = a.dim(perm[i]);
  Tensor out(out_shape);
  const auto in_strides = RowMajorStrides(a.shape());
  std::vector<int64_t> perm_strides(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) perm_strides[i] = in_strides[perm[i]];
  const int64_t rank = a.ndim();
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, a.numel(), kElemGrain, [&](int64_t lo, int64_t hi) {
    std::vector<int64_t> idx(rank, 0);
    int64_t src = 0;
    int64_t rem = lo;
    for (int64_t d = rank - 1; d >= 0; --d) {
      idx[d] = rem % out_shape[d];
      rem /= out_shape[d];
      src += idx[d] * perm_strides[d];
    }
    for (int64_t flat = lo; flat < hi; ++flat) {
      po[flat] = pa[src];
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++idx[d];
        src += perm_strides[d];
        if (idx[d] < out_shape[d]) break;
        src -= perm_strides[d] * out_shape[d];
        idx[d] = 0;
      }
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

// SumAll/Norm/Dot stay serial: their single running accumulator has no
// per-output fold to preserve, so any chunked version would change the
// floating-point association relative to the established serial results.
Tensor SumAll(const Tensor& a) {
  double acc = 0;
  const float* p = a.data();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) acc += p[i];
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor MeanAll(const Tensor& a) {
  RTGCN_CHECK_GT(a.numel(), 0);
  return Tensor::Scalar(SumAll(a).item() / static_cast<float>(a.numel()));
}

float MaxAll(const Tensor& a) {
  RTGCN_CHECK_GT(a.numel(), 0);
  const float* p = a.data();
  // max is exact under any association, so the chunked reduction matches
  // the serial scan bit-for-bit.
  return ParallelReduce(
      0, a.numel(), kElemGrain, -std::numeric_limits<float>::infinity(),
      [&](int64_t lo, int64_t hi) {
        float best = p[lo];
        for (int64_t i = lo + 1; i < hi; ++i) best = std::max(best, p[i]);
        return best;
      },
      [](float x, float y) { return std::max(x, y); });
}

float MinAll(const Tensor& a) {
  RTGCN_CHECK_GT(a.numel(), 0);
  const float* p = a.data();
  return ParallelReduce(
      0, a.numel(), kElemGrain, std::numeric_limits<float>::infinity(),
      [&](int64_t lo, int64_t hi) {
        float best = p[lo];
        for (int64_t i = lo + 1; i < hi; ++i) best = std::min(best, p[i]);
        return best;
      },
      [](float x, float y) { return std::min(x, y); });
}

namespace {

// Collapses shape into (outer, axis_len, inner) around `axis`.
void AxisSpans(const Shape& shape, int64_t axis, int64_t* outer,
               int64_t* axis_len, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < axis; ++i) *outer *= shape[i];
  *axis_len = shape[axis];
  for (size_t i = axis + 1; i < shape.size(); ++i) *inner *= shape[i];
}

Shape ReducedShape(const Shape& shape, int64_t axis, bool keepdims) {
  Shape out = shape;
  if (keepdims) {
    out[axis] = 1;
  } else {
    out.erase(out.begin() + axis);
  }
  return out;
}

}  // namespace

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.ndim());
  int64_t outer, len, inner;
  AxisSpans(a.shape(), axis, &outer, &len, &inner);
  Tensor out = Tensor::Zeros(ReducedShape(a.shape(), axis, keepdims));
  const float* pa = a.data();
  float* po = out.data();
  // Parallel over the outer dim: each output slice accumulates over `len`
  // in the serial order, so the split does not change the fold tree.
  ParallelFor(0, outer, GrainForCost(len * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t l = 0; l < len; ++l) {
        const float* src = pa + (o * len + l) * inner;
        float* dst = po + o * inner;
        for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
      }
    }
  });
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.ndim());
  const float inv = 1.0f / static_cast<float>(a.dim(axis));
  return MulScalar(Sum(a, axis, keepdims), inv);
}

Tensor Max(const Tensor& a, int64_t axis, bool keepdims) {
  axis = NormalizeAxis(axis, a.ndim());
  int64_t outer, len, inner;
  AxisSpans(a.shape(), axis, &outer, &len, &inner);
  Tensor out = Tensor::Full(ReducedShape(a.shape(), axis, keepdims),
                            -std::numeric_limits<float>::infinity());
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, outer, GrainForCost(len * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t l = 0; l < len; ++l) {
        const float* src = pa + (o * len + l) * inner;
        float* dst = po + o * inner;
        for (int64_t i = 0; i < inner; ++i) dst[i] = std::max(dst[i], src[i]);
      }
    }
  });
  return out;
}

Tensor Argmax(const Tensor& a, int64_t axis) {
  axis = NormalizeAxis(axis, a.ndim());
  int64_t outer, len, inner;
  AxisSpans(a.shape(), axis, &outer, &len, &inner);
  Tensor out = Tensor::Zeros(ReducedShape(a.shape(), axis, false));
  const float* pa = a.data();
  float* po = out.data();
  ParallelFor(0, outer, GrainForCost(len * inner), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      for (int64_t i = 0; i < inner; ++i) {
        float best = pa[o * len * inner + i];
        int64_t arg = 0;
        for (int64_t l = 1; l < len; ++l) {
          const float v = pa[(o * len + l) * inner + i];
          if (v > best) {
            best = v;
            arg = l;
          }
        }
        po[o * inner + i] = static_cast<float>(arg);
      }
    }
  });
  return out;
}

Tensor Softmax(const Tensor& a, int64_t axis) {
  const kernels::KernelSet& ks = kernels::Active();
  obs::Span span(ks.softmax_span, "tensor");
  axis = NormalizeAxis(axis, a.ndim());
  const int64_t cols = a.dim(axis);
  if (axis == a.ndim() - 1 && cols > 0) {
    // Last-axis rows are contiguous: fused shift/exp/normalize kernel,
    // parallel over independent rows.
    Tensor out(a.shape());
    const int64_t rows = a.numel() / cols;
    const float* pa = a.data();
    float* po = out.data();
    ParallelFor(0, rows, GrainForCost(4 * cols), [&](int64_t lo, int64_t hi) {
      ks.softmax_rows(pa, po, lo, hi, cols);
    });
    return out;
  }
  // Non-last axes keep the composed path (strided rows).
  Tensor shifted = Sub(a, Max(a, axis, /*keepdims=*/true));
  Tensor e = Exp(shifted);
  return Div(e, Sum(e, axis, /*keepdims=*/true));
}

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end) {
  axis = NormalizeAxis(axis, a.ndim());
  RTGCN_CHECK(start >= 0 && start <= end && end <= a.dim(axis))
      << "slice [" << start << "," << end << ") on axis " << axis << " of "
      << ShapeToString(a.shape());
  int64_t outer, len, inner;
  AxisSpans(a.shape(), axis, &outer, &len, &inner);
  Shape out_shape = a.shape();
  out_shape[axis] = end - start;
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  const int64_t span = (end - start) * inner;
  ParallelFor(0, outer, GrainForCost(span), [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      std::memcpy(po + o * span, pa + (o * len + start) * inner,
                  span * sizeof(float));
    }
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  RTGCN_CHECK(!parts.empty());
  axis = NormalizeAxis(axis, parts[0].ndim());
  Shape out_shape = parts[0].shape();
  int64_t total = 0;
  for (const Tensor& p : parts) {
    RTGCN_CHECK_EQ(p.ndim(), parts[0].ndim());
    for (int64_t d = 0; d < p.ndim(); ++d) {
      if (d != axis) RTGCN_CHECK_EQ(p.dim(d), parts[0].dim(d));
    }
    total += p.dim(axis);
  }
  out_shape[axis] = total;
  Tensor out(out_shape);
  int64_t outer, len, inner;
  AxisSpans(out_shape, axis, &outer, &len, &inner);
  float* po = out.data();
  int64_t written = 0;
  for (const Tensor& p : parts) {
    const int64_t plen = p.dim(axis);
    const float* pp = p.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * len + written) * inner, pp + o * plen * inner,
                  plen * inner * sizeof(float));
    }
    written += plen;
  }
  return out;
}

Tensor Unsqueeze(const Tensor& a, int64_t axis) {
  Shape s = a.shape();
  if (axis < 0) axis += a.ndim() + 1;
  RTGCN_CHECK(axis >= 0 && axis <= a.ndim());
  s.insert(s.begin() + axis, 1);
  return a.Reshape(s);
}

Tensor Squeeze(const Tensor& a, int64_t axis) {
  axis = NormalizeAxis(axis, a.ndim());
  RTGCN_CHECK_EQ(a.dim(axis), 1);
  Shape s = a.shape();
  s.erase(s.begin() + axis);
  return a.Reshape(s);
}

Tensor Stack(const std::vector<Tensor>& parts) {
  RTGCN_CHECK(!parts.empty());
  Shape elem_shape = parts[0].shape();
  Shape out_shape = elem_shape;
  out_shape.insert(out_shape.begin(), static_cast<int64_t>(parts.size()));
  Tensor out(out_shape);
  const int64_t elem = parts[0].numel();
  float* po = out.data();
  for (size_t i = 0; i < parts.size(); ++i) {
    RTGCN_CHECK(parts[i].shape() == elem_shape);
    std::memcpy(po + i * elem, parts[i].data(), elem * sizeof(float));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Comparisons / misc
// ---------------------------------------------------------------------------

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol + rtol * std::fabs(pb[i])) return false;
  }
  return true;
}

float Norm(const Tensor& a) {
  double acc = 0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += double(p[i]) * p[i];
  return static_cast<float>(std::sqrt(acc));
}

int64_t FirstNonFinite(const Tensor& a) {
  if (!a.defined() || a.numel() == 0) return -1;
  const float* p = a.data();
  // Leftmost offender seen so far; chunks entirely to its right skip their
  // scan. The final left-fold still picks the leftmost index, so the result
  // is deterministic at any thread count.
  std::atomic<int64_t> best{std::numeric_limits<int64_t>::max()};
  return ParallelReduce<int64_t>(
      0, a.numel(), kElemGrain, -1,
      [&](int64_t lo, int64_t hi) -> int64_t {
        if (lo >= best.load(std::memory_order_relaxed)) return -1;
        for (int64_t i = lo; i < hi; ++i) {
          if (!std::isfinite(p[i])) {
            int64_t prev = best.load(std::memory_order_relaxed);
            while (i < prev &&
                   !best.compare_exchange_weak(prev, i,
                                               std::memory_order_relaxed)) {
            }
            return i;
          }
        }
        return -1;
      },
      [](int64_t acc, int64_t partial) {
        return acc >= 0 ? acc : partial;
      });
}

bool CheckFinite(const Tensor& a) { return FirstNonFinite(a) < 0; }

float Dot(const Tensor& a, const Tensor& b) {
  RTGCN_CHECK_EQ(a.numel(), b.numel());
  double acc = 0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += double(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

}  // namespace rtgcn
