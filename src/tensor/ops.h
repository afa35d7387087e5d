// Eager (non-differentiating) tensor operations.
//
// Binary elementwise ops broadcast in NumPy fashion. Reductions take an axis
// (negative axes count from the back) and optionally keep the reduced
// dimension. The differentiable layer in autograd/ builds on these kernels.
//
// Elementwise ops, matmul (row panels), batched matmul (batch dim), axis
// reductions (outer dim), and layout transforms run on the shared thread
// pool (common/thread_pool.h). Chunk boundaries depend only on problem
// size, and every output element keeps a panel-independent accumulation
// order, so results are bit-identical at any --num_threads setting.
//
// The hot paths (matmul, batched matmul, last-axis softmax, transpose and
// the contiguous elementwise loops) execute through a runtime-dispatched
// kernel backend — scalar reference or AVX2/FMA — selected by CPUID and
// the RTGCN_KERNEL knob; see tensor/kernels/kernels.h.
#ifndef RTGCN_TENSOR_OPS_H_
#define RTGCN_TENSOR_OPS_H_

#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace rtgcn {

// ---------------------------------------------------------------------------
// Broadcasting
// ---------------------------------------------------------------------------

/// Returns the broadcast result shape of `a` and `b`; aborts on mismatch.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// True when `from` broadcasts to `to`.
bool BroadcastableTo(const Shape& from, const Shape& to);

/// Materializes `t` broadcast to `shape` (copies data).
Tensor BroadcastTo(const Tensor& t, const Shape& shape);

/// Sums `t` back down to `shape` (the adjoint of BroadcastTo).
Tensor ReduceToShape(const Tensor& t, const Shape& shape);

// ---------------------------------------------------------------------------
// Elementwise binary (broadcasting) and scalar ops
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// ---------------------------------------------------------------------------
// Elementwise unary
// ---------------------------------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float slope);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);
Tensor Sign(const Tensor& a);

/// Applies `fn` elementwise (test/utility use; not differentiable).
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

/// 2-D matrix product [m,k]x[k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Batched product: a [B,m,k], b [B,k,n] or [k,n] (shared) -> [B,m,n].
Tensor BatchMatMul(const Tensor& a, const Tensor& b);

/// 2-D transpose.
Tensor Transpose(const Tensor& a);

/// General axis permutation.
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor SumAll(const Tensor& a);   // -> 0-d
Tensor MeanAll(const Tensor& a);  // -> 0-d
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Max(const Tensor& a, int64_t axis, bool keepdims = false);

/// Index of the max along `axis` (as float indices).
Tensor Argmax(const Tensor& a, int64_t axis);

/// Numerically stable softmax along `axis`.
Tensor Softmax(const Tensor& a, int64_t axis);

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

/// Slice along `axis`, indices [start, end).
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end);

/// Concatenation along `axis`.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Inserts a size-1 axis at `axis`.
Tensor Unsqueeze(const Tensor& a, int64_t axis);

/// Removes a size-1 axis at `axis`.
Tensor Squeeze(const Tensor& a, int64_t axis);

/// Stacks equally-shaped tensors along a new leading axis.
Tensor Stack(const std::vector<Tensor>& parts);

// ---------------------------------------------------------------------------
// Comparisons / misc
// ---------------------------------------------------------------------------

/// Elementwise |a-b| <= atol + rtol*|b| over all entries.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

/// True when every entry is finite (no NaN/Inf). Parallel scan; chunks
/// whose range lies after an already-found offender are skipped, so the
/// cost is proportional to the prefix before the first non-finite entry.
bool CheckFinite(const Tensor& a);

/// Flat (row-major) index of the first non-finite entry, or -1 when all
/// entries are finite. Deterministic at any thread count.
int64_t FirstNonFinite(const Tensor& a);

/// Frobenius / L2 norm over all entries.
float Norm(const Tensor& a);

/// Dot product of two 1-d tensors.
float Dot(const Tensor& a, const Tensor& b);

/// Resolves a possibly negative axis against `ndim`; checks bounds.
int64_t NormalizeAxis(int64_t axis, int64_t ndim);

}  // namespace rtgcn

#endif  // RTGCN_TENSOR_OPS_H_
