// Differentiable operations over ag::Variable.
//
// Each op computes its forward value with the eager kernels in tensor/ops.h
// and, when gradient mode is on and any input needs gradients, installs a
// backward closure on the output. Gradients for broadcast inputs are reduced
// back to the input shape automatically by Variable::AccumulateGrad.
#ifndef RTGCN_AUTOGRAD_OPS_H_
#define RTGCN_AUTOGRAD_OPS_H_

#include <functional>
#include <vector>

#include "autograd/variable.h"

namespace rtgcn::ag {

/// True when gradients must flow to or through `v`.
inline bool NeedsGrad(const VarPtr& v) {
  return v->requires_grad || !v->is_leaf();
}

/// Builds an op's output node from its forward `value`. `op` is a static
/// string naming the operation; it is recorded on the node so the
/// finite-check mode can name the op that produced a non-finite value, and
/// the value is scanned here when those checks are on. The tape edge
/// (`parents`, `backward_fn`) is attached only when gradient mode is on and
/// some parent needs gradients. Fused ops outside this file build through
/// it too.
VarPtr MakeOp(const char* op, Tensor value, std::vector<VarPtr> parents,
              std::function<void(const Tensor&)> backward_fn);

// Elementwise binary (broadcasting).
VarPtr Add(const VarPtr& a, const VarPtr& b);
VarPtr Sub(const VarPtr& a, const VarPtr& b);
VarPtr Mul(const VarPtr& a, const VarPtr& b);
VarPtr Div(const VarPtr& a, const VarPtr& b);

// Scalar variants.
VarPtr AddScalar(const VarPtr& a, float s);
VarPtr MulScalar(const VarPtr& a, float s);

// Elementwise unary.
VarPtr Neg(const VarPtr& a);
VarPtr Relu(const VarPtr& a);
VarPtr LeakyRelu(const VarPtr& a, float slope);
VarPtr Sigmoid(const VarPtr& a);
VarPtr Tanh(const VarPtr& a);
VarPtr Exp(const VarPtr& a);
VarPtr Log(const VarPtr& a);
VarPtr Sqrt(const VarPtr& a);
VarPtr Square(const VarPtr& a);
VarPtr Abs(const VarPtr& a);

// Matrix products.
VarPtr MatMul(const VarPtr& a, const VarPtr& b);
/// a: [B,m,k]; b: [B,k,n] or [k,n] (shared across the batch).
VarPtr BatchMatMul(const VarPtr& a, const VarPtr& b);
VarPtr Transpose(const VarPtr& a);
VarPtr Permute(const VarPtr& a, const std::vector<int64_t>& perm);

// Reductions.
VarPtr Sum(const VarPtr& a, int64_t axis, bool keepdims = false);
VarPtr Mean(const VarPtr& a, int64_t axis, bool keepdims = false);
VarPtr SumAll(const VarPtr& a);
VarPtr MeanAll(const VarPtr& a);

/// Numerically stable softmax along `axis`.
VarPtr Softmax(const VarPtr& a, int64_t axis);

// Shape surgery.
VarPtr Reshape(const VarPtr& a, Shape shape);
VarPtr SliceOp(const VarPtr& a, int64_t axis, int64_t start, int64_t end);
VarPtr ConcatOp(const std::vector<VarPtr>& parts, int64_t axis);

/// Pairwise hinge ranking loss (Feng et al.), one fused op:
///   (1/N²) Σ_ij max(0, -(s_i - s_j)(y_i - y_j))
/// over scores `s` and labels `y` of N entries each (any shapes of equal
/// numel, e.g. [N] or [N, 1]). O(N²) compute, O(N) memory: no [N, N]
/// tensor is ever built. Each row i sums into its own double accumulator
/// in fixed j order and the rows are summed in row order, so the value is
/// identical at any thread count. Since pairs (i, j) and (j, i) give the
/// same product, dL/ds_i = -(2/N²) Σ_j [hinge_ij > 0] (y_i - y_j); tied
/// pairs contribute no gradient. A NaN score yields a NaN loss.
VarPtr PairwiseRankingLoss(const VarPtr& scores, const Tensor& labels);

}  // namespace rtgcn::ag

#endif  // RTGCN_AUTOGRAD_OPS_H_
