// Tape-based reverse-mode automatic differentiation.
//
// A Variable wraps a Tensor value plus (lazily allocated) gradient storage
// and a closure that back-propagates an incoming gradient to its parents.
// The graph is dynamic: each differentiable op (autograd/ops.h) allocates a
// fresh output Variable holding shared_ptrs to its inputs, so releasing the
// final loss Variable frees the whole tape while leaf parameters survive.
#ifndef RTGCN_AUTOGRAD_VARIABLE_H_
#define RTGCN_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rtgcn::ag {

class Variable;
using VarPtr = std::shared_ptr<Variable>;

/// \brief Node in the autodiff tape.
class Variable {
 public:
  explicit Variable(Tensor value, bool requires_grad = false)
      : value(std::move(value)), requires_grad(requires_grad) {}

  /// Forward value.
  Tensor value;
  /// Accumulated gradient (same shape as value). Undefined until needed.
  Tensor grad;
  /// Leaves with requires_grad are optimizable parameters.
  bool requires_grad;
  /// Inputs of the op that produced this variable (empty for leaves).
  std::vector<VarPtr> parents;
  /// Propagates `grad_out` (d loss / d this) into parents' grads.
  std::function<void(const Tensor& grad_out)> backward_fn;
  /// Static name of the producing op ("leaf" for leaves/constants); lets
  /// the finite-check mode (autograd/finite_check.h) name the offender.
  const char* op_name = "leaf";

  const Shape& shape() const { return value.shape(); }
  int64_t numel() const { return value.numel(); }

  bool is_leaf() const { return parents.empty() && !backward_fn; }

  /// Adds `g` into this->grad, reducing broadcast axes as needed. The first
  /// gradient is adopted without a copy when no other tensor shares its
  /// storage (pass a freshly built gradient with std::move), else copied.
  void AccumulateGrad(Tensor g);

  /// Drops accumulated gradient (between optimizer steps).
  void ZeroGrad() { grad = Tensor(); }
};

/// Creates a leaf variable (e.g. a parameter when requires_grad = true).
VarPtr MakeVariable(Tensor value, bool requires_grad = false);

/// Creates a non-differentiable constant.
VarPtr Constant(Tensor value);

/// Runs reverse-mode accumulation from `root` (any shape; the seed gradient
/// is all-ones, so for a scalar loss this is d loss / d leaf).
void Backward(const VarPtr& root);

/// \brief Global switch that disables tape construction (inference mode).
class GradMode {
 public:
  static bool enabled();
  static void set_enabled(bool enabled);
};

/// RAII guard: disables gradient tracking for its scope.
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::enabled()) { GradMode::set_enabled(false); }
  ~NoGradGuard() { GradMode::set_enabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace rtgcn::ag

#endif  // RTGCN_AUTOGRAD_VARIABLE_H_
