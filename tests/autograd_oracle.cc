#include "autograd_oracle.h"

#include <cstring>
#include <utility>

#include "autograd/ops.h"
#include "tensor/ops.h"

namespace rtgcn::ag {

VarPtr Downsample(const VarPtr& a, int64_t axis, int64_t step, int64_t start) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  RTGCN_CHECK_GE(step, 1);
  const Shape in_shape = a->shape();
  const int64_t len = in_shape[norm_axis];
  RTGCN_CHECK(start >= 0 && start < len);
  const int64_t out_len = (len - start + step - 1) / step;
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < norm_axis; ++i) outer *= in_shape[i];
  for (size_t i = norm_axis + 1; i < in_shape.size(); ++i) inner *= in_shape[i];
  Shape out_shape = in_shape;
  out_shape[norm_axis] = out_len;
  Tensor out(out_shape);
  const float* pa = a->value.data();
  float* po = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t t = 0; t < out_len; ++t) {
      std::memcpy(po + (o * out_len + t) * inner,
                  pa + (o * len + start + t * step) * inner,
                  inner * sizeof(float));
    }
  }
  return MakeOp("Downsample", out, {a},
                [a, in_shape, norm_axis, step, start, out_len, outer, inner,
                 len](const Tensor& g) {
                  Tensor full = Tensor::Zeros(in_shape);
                  const float* pg = g.data();
                  float* pf = full.data();
                  for (int64_t o = 0; o < outer; ++o) {
                    for (int64_t t = 0; t < out_len; ++t) {
                      std::memcpy(pf + (o * len + start + t * step) * inner,
                                  pg + (o * out_len + t) * inner,
                                  inner * sizeof(float));
                    }
                  }
                  a->AccumulateGrad(std::move(full));
                });
}

VarPtr Dropout(const VarPtr& a, float p, bool training, Rng* rng,
               int64_t spatial_axis) {
  if (!training || p <= 0.0f) return a;
  RTGCN_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask;
  if (spatial_axis < 0) {
    mask = Tensor(a->shape());
    float* pm = mask.data();
    for (int64_t i = 0; i < mask.numel(); ++i) {
      pm[i] = rng->Bernoulli(p) ? 0.0f : scale;
    }
  } else {
    // Spatial dropout: one Bernoulli draw per index of `spatial_axis`,
    // broadcast over all other axes (drops whole channels).
    const int64_t axis = NormalizeAxis(spatial_axis, a->value.ndim());
    Shape mask_shape(a->value.ndim(), 1);
    mask_shape[axis] = a->value.dim(axis);
    mask = Tensor(mask_shape);
    float* pm = mask.data();
    for (int64_t i = 0; i < mask.numel(); ++i) {
      pm[i] = rng->Bernoulli(p) ? 0.0f : scale;
    }
  }
  return Mul(a, Constant(mask));
}

}  // namespace rtgcn::ag
