#include "autograd/variable.h"

#include <unordered_set>

#include "autograd/finite_check.h"
#include "obs/trace.h"

namespace rtgcn::ag {

namespace {
// thread_local so pool workers can never race the main thread's
// NoGradGuard; tape construction itself remains main-thread-only.
thread_local bool g_grad_enabled = true;
}  // namespace

bool GradMode::enabled() { return g_grad_enabled; }
void GradMode::set_enabled(bool enabled) { g_grad_enabled = enabled; }

void Variable::AccumulateGrad(Tensor g) {
  g = ReduceToShape(g, value.shape());
  if (grad.defined()) {
    grad = rtgcn::Add(grad, g);
  } else {
    // A shared buffer is copied, so nothing that later updates grad in
    // place can reach another tensor.
    grad = g.sole_owner() ? std::move(g) : g.Clone();
  }
}

VarPtr MakeVariable(Tensor value, bool requires_grad) {
  return std::make_shared<Variable>(std::move(value), requires_grad);
}

VarPtr Constant(Tensor value) {
  return std::make_shared<Variable>(std::move(value), /*requires_grad=*/false);
}

namespace {

// Iterative post-order DFS producing a topological order (parents before
// children in `order`, so we replay it in reverse).
void TopoSort(const VarPtr& root, std::vector<Variable*>* order) {
  std::unordered_set<Variable*> visited;
  std::vector<std::pair<Variable*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Variable* child = node->parents[next_child].get();
      ++next_child;
      if (child && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const VarPtr& root) {
  RTGCN_CHECK(root != nullptr);
  obs::Span backward_span("ag.Backward", "ag");
  std::vector<Variable*> order;
  TopoSort(root, &order);
  root->AccumulateGrad(Tensor::Ones(root->value.shape()));
  // Reverse topological order: every node's gradient is complete before its
  // backward_fn fires.
  const bool check = FiniteChecks::enabled();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Variable* node = *it;
    if (node->backward_fn && node->grad.defined()) {
      // Per-op span: op_name is a static string, so recording it is
      // pointer-copy cheap; with tracing off this is a single branch.
      obs::Span op_span(node->op_name, "ag");
      // The incoming gradient of `node` is final here, so a non-finite
      // entry pins the blame on the op that produced it downstream.
      if (check) FiniteChecks::Observe(node->op_name, "backward", node->grad);
      node->backward_fn(node->grad);
    }
  }
}

}  // namespace rtgcn::ag
