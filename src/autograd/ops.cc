#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "autograd/finite_check.h"
#include "common/thread_pool.h"
#include "tensor/kernels/kernels.h"

namespace rtgcn::ag {

VarPtr MakeOp(const char* op, Tensor value, std::vector<VarPtr> parents,
              std::function<void(const Tensor&)> backward_fn) {
  bool track = GradMode::enabled();
  if (track) {
    track = false;
    for (const auto& p : parents) {
      if (NeedsGrad(p)) {
        track = true;
        break;
      }
    }
  }
  auto out = std::make_shared<Variable>(std::move(value));
  out->op_name = op;
  FiniteChecks::Observe(op, "forward", out->value);
  if (track) {
    out->parents = std::move(parents);
    out->backward_fn = std::move(backward_fn);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Elementwise binary
// ---------------------------------------------------------------------------

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Add", rtgcn::Add(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) a->AccumulateGrad(g);
                  if (NeedsGrad(b)) b->AccumulateGrad(g);
                });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Sub", rtgcn::Sub(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) a->AccumulateGrad(g);
                  if (NeedsGrad(b)) b->AccumulateGrad(rtgcn::Neg(g));
                });
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Mul", rtgcn::Mul(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) a->AccumulateGrad(rtgcn::Mul(g, b->value));
                  if (NeedsGrad(b)) b->AccumulateGrad(rtgcn::Mul(g, a->value));
                });
}

VarPtr Div(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Div", 
      rtgcn::Div(a->value, b->value), {a, b}, [a, b](const Tensor& g) {
        if (NeedsGrad(a)) a->AccumulateGrad(rtgcn::Div(g, b->value));
        if (NeedsGrad(b)) {
          // d(a/b)/db = -a / b^2
          Tensor gb = rtgcn::Neg(rtgcn::Div(rtgcn::Mul(g, a->value),
                                            rtgcn::Square(b->value)));
          b->AccumulateGrad(std::move(gb));
        }
      });
}

VarPtr AddScalar(const VarPtr& a, float s) {
  return MakeOp("AddScalar", rtgcn::AddScalar(a->value, s), {a},
                [a](const Tensor& g) { a->AccumulateGrad(g); });
}

VarPtr MulScalar(const VarPtr& a, float s) {
  return MakeOp("MulScalar", rtgcn::MulScalar(a->value, s), {a},
                [a, s](const Tensor& g) {
                  a->AccumulateGrad(rtgcn::MulScalar(g, s));
                });
}

// ---------------------------------------------------------------------------
// Elementwise unary
// ---------------------------------------------------------------------------

VarPtr Neg(const VarPtr& a) {
  return MakeOp("Neg", rtgcn::Neg(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Neg(g));
  });
}

namespace {

// o[i] = g[i] · (x[i] > 0 ? 1 : slope). The factor is picked by a bit
// mask, not a branch, so the loop vectorizes: a branch on the sign of x
// mispredicts on every other element of a random-sign input. Every
// element is multiplied, also by 1, so a subnormal g is flushed like any
// other product (a select between constants lets the compiler fold g · 1
// into g).
void RectifierGradSpan(const float* g, const float* x, float slope, float* o,
                       int64_t n) {
  uint32_t one_bits, slope_bits;
  const float one = 1.0f;
  std::memcpy(&one_bits, &one, sizeof(float));
  std::memcpy(&slope_bits, &slope, sizeof(float));
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t positive = x[i] > 0.0f ? ~0u : 0u;
    const uint32_t bits = (one_bits & positive) | (slope_bits & ~positive);
    float factor;
    std::memcpy(&factor, &bits, sizeof(float));
    o[i] = g[i] * factor;
  }
}

// g · (x > 0 ? 1 : negative_slope) in one pass: the same IEEE product per
// element as building the mask and multiplying, NaN/Inf included.
Tensor RectifierGrad(const Tensor& g, const Tensor& x, float negative_slope) {
  RTGCN_CHECK(g.shape() == x.shape());
  Tensor out(x.shape());
  const float* pg = g.data();
  const float* px = x.data();
  float* po = out.data();
  ParallelFor(0, x.numel(), 8192, [&](int64_t lo, int64_t hi) {
    RectifierGradSpan(pg + lo, px + lo, negative_slope, po + lo, hi - lo);
  });
  return out;
}

}  // namespace

VarPtr Relu(const VarPtr& a) {
  Tensor y = rtgcn::Relu(a->value);
  return MakeOp("Relu", y, {a}, [a](const Tensor& g) {
    a->AccumulateGrad(RectifierGrad(g, a->value, 0.0f));
  });
}

VarPtr LeakyRelu(const VarPtr& a, float slope) {
  Tensor y = rtgcn::LeakyRelu(a->value, slope);
  return MakeOp("LeakyRelu", y, {a}, [a, slope](const Tensor& g) {
    a->AccumulateGrad(RectifierGrad(g, a->value, slope));
  });
}

VarPtr Sigmoid(const VarPtr& a) {
  Tensor y = rtgcn::Sigmoid(a->value);
  return MakeOp("Sigmoid", y, {a}, [a, y](const Tensor& g) {
    // y' = y (1 - y)
    Tensor dy = rtgcn::Mul(y, rtgcn::Map(y, [](float v) { return 1.0f - v; }));
    a->AccumulateGrad(rtgcn::Mul(g, dy));
  });
}

VarPtr Tanh(const VarPtr& a) {
  Tensor y = rtgcn::Tanh(a->value);
  return MakeOp("Tanh", y, {a}, [a, y](const Tensor& g) {
    Tensor dy = rtgcn::Map(y, [](float v) { return 1.0f - v * v; });
    a->AccumulateGrad(rtgcn::Mul(g, dy));
  });
}

VarPtr Exp(const VarPtr& a) {
  Tensor y = rtgcn::Exp(a->value);
  return MakeOp("Exp", y, {a}, [a, y](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Mul(g, y));
  });
}

VarPtr Log(const VarPtr& a) {
  return MakeOp("Log", rtgcn::Log(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Div(g, a->value));
  });
}

VarPtr Sqrt(const VarPtr& a) {
  Tensor y = rtgcn::Sqrt(a->value);
  return MakeOp("Sqrt", y, {a}, [a, y](const Tensor& g) {
    Tensor dy = rtgcn::Map(y, [](float v) { return 0.5f / v; });
    a->AccumulateGrad(rtgcn::Mul(g, dy));
  });
}

VarPtr Square(const VarPtr& a) {
  return MakeOp("Square", rtgcn::Square(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Mul(g, rtgcn::MulScalar(a->value, 2.0f)));
  });
}

VarPtr Abs(const VarPtr& a) {
  return MakeOp("Abs", rtgcn::Abs(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Mul(g, rtgcn::Sign(a->value)));
  });
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  return MakeOp("MatMul", rtgcn::MatMul(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) {
                    a->AccumulateGrad(rtgcn::MatMul(g, rtgcn::Transpose(b->value)));
                  }
                  if (NeedsGrad(b)) {
                    b->AccumulateGrad(rtgcn::MatMul(rtgcn::Transpose(a->value), g));
                  }
                });
}

VarPtr BatchMatMul(const VarPtr& a, const VarPtr& b) {
  return MakeOp("BatchMatMul", 
      rtgcn::BatchMatMul(a->value, b->value), {a, b}, [a, b](const Tensor& g) {
        const int64_t batch = a->value.dim(0);
        const int64_t m = a->value.dim(1);
        const int64_t k = a->value.dim(2);
        const bool shared_b = b->value.ndim() == 2;
        const int64_t n = shared_b ? b->value.dim(1) : b->value.dim(2);
        if (NeedsGrad(a)) {
          // gA[i] = g[i] @ B(i)^T
          Tensor ga = Tensor::Zeros({batch, m, k});
          for (int64_t i = 0; i < batch; ++i) {
            Tensor gi({m, n}, std::vector<float>(g.data() + i * m * n,
                                                 g.data() + (i + 1) * m * n));
            Tensor bi = shared_b
                            ? b->value
                            : Tensor({k, n}, std::vector<float>(
                                                 b->value.data() + i * k * n,
                                                 b->value.data() + (i + 1) * k * n));
            Tensor gai = rtgcn::MatMul(gi, rtgcn::Transpose(bi));
            std::memcpy(ga.data() + i * m * k, gai.data(),
                        m * k * sizeof(float));
          }
          a->AccumulateGrad(std::move(ga));
        }
        if (NeedsGrad(b)) {
          if (shared_b) {
            Tensor gb = Tensor::Zeros({k, n});
            for (int64_t i = 0; i < batch; ++i) {
              Tensor ai({m, k}, std::vector<float>(
                                    a->value.data() + i * m * k,
                                    a->value.data() + (i + 1) * m * k));
              Tensor gi({m, n}, std::vector<float>(g.data() + i * m * n,
                                                   g.data() + (i + 1) * m * n));
              gb = rtgcn::Add(gb, rtgcn::MatMul(rtgcn::Transpose(ai), gi));
            }
            b->AccumulateGrad(std::move(gb));
          } else {
            Tensor gb = Tensor::Zeros({batch, k, n});
            for (int64_t i = 0; i < batch; ++i) {
              Tensor ai({m, k}, std::vector<float>(
                                    a->value.data() + i * m * k,
                                    a->value.data() + (i + 1) * m * k));
              Tensor gi({m, n}, std::vector<float>(g.data() + i * m * n,
                                                   g.data() + (i + 1) * m * n));
              Tensor gbi = rtgcn::MatMul(rtgcn::Transpose(ai), gi);
              std::memcpy(gb.data() + i * k * n, gbi.data(),
                          k * n * sizeof(float));
            }
            b->AccumulateGrad(std::move(gb));
          }
        }
      });
}

VarPtr Transpose(const VarPtr& a) {
  return MakeOp("Transpose", rtgcn::Transpose(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Transpose(g));
  });
}

VarPtr Permute(const VarPtr& a, const std::vector<int64_t>& perm) {
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = static_cast<int64_t>(i);
  return MakeOp("Permute", rtgcn::Permute(a->value, perm), {a},
                [a, inverse](const Tensor& g) {
                  a->AccumulateGrad(rtgcn::Permute(g, inverse));
                });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

VarPtr Sum(const VarPtr& a, int64_t axis, bool keepdims) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  Shape in_shape = a->shape();
  return MakeOp("Sum", rtgcn::Sum(a->value, norm_axis, keepdims), {a},
                [a, norm_axis, keepdims, in_shape](const Tensor& g) {
                  Tensor gg = g;
                  if (!keepdims) gg = rtgcn::Unsqueeze(gg, norm_axis);
                  a->AccumulateGrad(rtgcn::BroadcastTo(gg, in_shape));
                });
}

VarPtr Mean(const VarPtr& a, int64_t axis, bool keepdims) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  const float inv = 1.0f / static_cast<float>(a->value.dim(norm_axis));
  return MulScalar(Sum(a, norm_axis, keepdims), inv);
}

VarPtr SumAll(const VarPtr& a) {
  Shape in_shape = a->shape();
  return MakeOp("SumAll", rtgcn::SumAll(a->value), {a},
                [a, in_shape](const Tensor& g) {
                  a->AccumulateGrad(Tensor::Full(in_shape, g.item()));
                });
}

VarPtr MeanAll(const VarPtr& a) {
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a->numel()));
}

VarPtr Softmax(const VarPtr& a, int64_t axis) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  Tensor y = rtgcn::Softmax(a->value, norm_axis);
  return MakeOp("Softmax", y, {a}, [a, y, norm_axis](const Tensor& g) {
    // dx = y * (g - sum(g * y, axis, keepdims))
    Tensor gy = rtgcn::Mul(g, y);
    Tensor s = rtgcn::Sum(gy, norm_axis, /*keepdims=*/true);
    a->AccumulateGrad(rtgcn::Mul(y, rtgcn::Sub(g, s)));
  });
}

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

VarPtr Reshape(const VarPtr& a, Shape shape) {
  Shape in_shape = a->shape();
  return MakeOp("Reshape", a->value.Reshape(std::move(shape)).Clone(), {a},
                [a, in_shape](const Tensor& g) {
                  a->AccumulateGrad(g.Reshape(in_shape));
                });
}

VarPtr SliceOp(const VarPtr& a, int64_t axis, int64_t start, int64_t end) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  Shape in_shape = a->shape();
  return MakeOp("SliceOp", 
      rtgcn::Slice(a->value, norm_axis, start, end), {a},
      [a, norm_axis, start, in_shape](const Tensor& g) {
        // Scatter g back into a zero tensor of the input shape.
        Tensor full = Tensor::Zeros(in_shape);
        int64_t outer = 1, inner = 1;
        for (int64_t i = 0; i < norm_axis; ++i) outer *= in_shape[i];
        for (size_t i = norm_axis + 1; i < in_shape.size(); ++i) inner *= in_shape[i];
        const int64_t len = in_shape[norm_axis];
        const int64_t glen = g.shape()[norm_axis];
        const float* pg = g.data();
        float* pf = full.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(pf + (o * len + start) * inner, pg + o * glen * inner,
                      glen * inner * sizeof(float));
        }
        a->AccumulateGrad(std::move(full));
      });
}

VarPtr ConcatOp(const std::vector<VarPtr>& parts, int64_t axis) {
  RTGCN_CHECK(!parts.empty());
  const int64_t norm_axis = NormalizeAxis(axis, parts[0]->value.ndim());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<int64_t> sizes;
  for (const auto& p : parts) {
    values.push_back(p->value);
    sizes.push_back(p->value.dim(norm_axis));
  }
  return MakeOp("ConcatOp", rtgcn::Concat(values, norm_axis), parts,
                [parts, sizes, norm_axis](const Tensor& g) {
                  int64_t offset = 0;
                  for (size_t i = 0; i < parts.size(); ++i) {
                    if (NeedsGrad(parts[i])) {
                      parts[i]->AccumulateGrad(rtgcn::Slice(
                          g, norm_axis, offset, offset + sizes[i]));
                    }
                    offset += sizes[i];
                  }
                });
}

// ---------------------------------------------------------------------------
// Ranking loss
// ---------------------------------------------------------------------------

VarPtr PairwiseRankingLoss(const VarPtr& scores, const Tensor& labels) {
  const int64_t n = scores->numel();
  RTGCN_CHECK_GT(n, 0);
  RTGCN_CHECK_EQ(labels.numel(), n);
  const bool want_grad = GradMode::enabled() && NeedsGrad(scores);
  const float* s = scores->value.data();
  const float* y = labels.data();
  // Per-row hinge sums and, when a gradient is wanted, per-row sums of
  // [hinge_ij > 0] (y_i - y_j). Rows are independent, so the pool splits
  // them freely without changing any row's summation order.
  std::vector<double> row_loss(static_cast<size_t>(n));
  auto row_grad = std::make_shared<std::vector<double>>(
      want_grad ? static_cast<size_t>(n) : 0);
  double* pg = want_grad ? row_grad->data() : nullptr;
  const kernels::KernelSet& ks = kernels::Active();
  ParallelFor(0, n, std::max<int64_t>(1, 32768 / n),
              [&](int64_t lo, int64_t hi) {
                ks.pairwise_hinge_rows(s, y, n, lo, hi, row_loss.data(), pg);
              });
  double total = 0;
  for (const double r : row_loss) total += r;
  const float inv_pairs = 1.0f / static_cast<float>(n * n);
  Tensor value = Tensor::Scalar(static_cast<float>(total) * inv_pairs);
  return MakeOp("PairwiseRankingLoss", std::move(value), {scores},
                [scores, row_grad, inv_pairs](const Tensor& g) {
                  const double scale =
                      -2.0 * static_cast<double>(inv_pairs) * g.item();
                  Tensor grad(scores->shape());
                  float* out = grad.data();
                  for (int64_t i = 0; i < grad.numel(); ++i) {
                    out[i] = static_cast<float>(scale * (*row_grad)[i]);
                  }
                  scores->AccumulateGrad(std::move(grad));
                });
}

}  // namespace rtgcn::ag
