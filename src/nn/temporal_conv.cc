#include "nn/temporal_conv.h"

#include <algorithm>
#include <cstring>

#include "autograd/ops.h"
#include "common/thread_pool.h"
#include "tensor/init.h"

namespace rtgcn::nn {

namespace {

// Fused causal convolution: x [T, N, in], w [k, in, out], b [out] ->
// y [ceil(T/stride), N, out] with
//   y[m] = b + Σ_i x[t_m - (k-1-i)·dilation] @ w[i],
//   t_m = (T-1) % stride + m·stride,
// taps before time 0 reading zeros. Only the kept times are computed: their
// taps are gathered into one [T_out·N, k·in] matrix `cols`, so the forward
// is one matmul and the backward writes dX, dW and db directly.
ag::VarPtr FusedCausalConv(const ag::VarPtr& x, const ag::VarPtr& w,
                           const ag::VarPtr& b, int64_t dilation,
                           int64_t stride) {
  const int64_t t_len = x->value.dim(0);
  const int64_t n = x->value.dim(1);
  const int64_t in = x->value.dim(2);
  const int64_t k = w->value.dim(0);
  const int64_t out = w->value.dim(2);
  const int64_t t_out = (t_len + stride - 1) / stride;
  const int64_t start = (t_len - 1) % stride;
  const int64_t width = k * in;
  // cols[(m, j), i·in + c] = x[t_m - (k-1-i)·dilation, j, c]. Calls
  // fn(col, src) with the offsets in cols and in x of every tap of stocks
  // [lo, hi) that reads a time >= 0. One chunk owns all taps of its stocks
  // and visits them in fixed (m, i) order, so the backward scatter-add is
  // bit-identical at any thread count.
  auto for_each_tap = [=](int64_t lo, int64_t hi, auto&& fn) {
    for (int64_t j = lo; j < hi; ++j) {
      for (int64_t m = 0; m < t_out; ++m) {
        for (int64_t i = 0; i < k; ++i) {
          const int64_t ts = start + m * stride - (k - 1 - i) * dilation;
          if (ts >= 0) fn((m * n + j) * width + i * in, (ts * n + j) * in);
        }
      }
    }
  };
  const int64_t grain = std::max<int64_t>(1, 8192 / (t_out * width));

  Tensor cols = Tensor::Zeros({t_out * n, width});
  {
    const float* px = x->value.data();
    float* pc = cols.data();
    ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
      for_each_tap(lo, hi, [&](int64_t col, int64_t src) {
        std::memcpy(pc + col, px + src, in * sizeof(float));
      });
    });
  }
  const Tensor w_flat = w->value.Reshape({width, out});
  Tensor y = rtgcn::Add(rtgcn::MatMul(cols, w_flat), b->value)
                 .Reshape({t_out, n, out});
  return ag::MakeOp(
      "CausalConv1d", std::move(y), {x, w, b},
      [x, w, b, cols, w_flat, for_each_tap, grain, t_out, n, in, k,
       out](const Tensor& g) {
        const Tensor g_flat = g.Reshape({t_out * n, out});
        if (ag::NeedsGrad(b)) b->AccumulateGrad(rtgcn::Sum(g_flat, 0));
        if (ag::NeedsGrad(w)) {
          w->AccumulateGrad(rtgcn::MatMul(rtgcn::Transpose(cols), g_flat)
                                .Reshape({k, in, out}));
        }
        if (ag::NeedsGrad(x)) {
          const Tensor dcols = rtgcn::MatMul(g_flat, rtgcn::Transpose(w_flat));
          Tensor dx = Tensor::Zeros(x->shape());
          const float* pd = dcols.data();
          float* pdx = dx.data();
          ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
            for_each_tap(lo, hi, [&](int64_t col, int64_t src) {
              for (int64_t c = 0; c < in; ++c) pdx[src + c] += pd[col + c];
            });
          });
          x->AccumulateGrad(dx);
        }
      });
}

}  // namespace

CausalConv1d::CausalConv1d(int64_t in_channels, int64_t out_channels,
                           int64_t kernel_size, Rng* rng, int64_t dilation,
                           int64_t stride, bool weight_norm)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      dilation_(dilation),
      stride_(stride),
      weight_norm_(weight_norm) {
  RTGCN_CHECK_GE(kernel_size, 1);
  RTGCN_CHECK_GE(dilation, 1);
  RTGCN_CHECK_GE(stride, 1);
  const int64_t fan_in = kernel_size * in_channels;
  v_ = RegisterParameter(
      "v", KaimingUniform({kernel_size, in_channels, out_channels}, fan_in,
                          rng));
  if (weight_norm_) {
    // Initialize the gain to the initial per-channel norm so the effective
    // weight starts equal to v (standard weight-norm initialization).
    Tensor norms = rtgcn::Sqrt(rtgcn::Sum(
        rtgcn::Sum(rtgcn::Square(v_->value), 0, true), 1, true));
    gain_ = RegisterParameter("gain", norms);
  }
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_channels}));
}

ag::VarPtr CausalConv1d::EffectiveWeight() const {
  if (!weight_norm_) return v_;
  // w = g * v / ||v||, per output channel over (k, in).
  VarPtr sq = ag::Square(v_);
  VarPtr norm = ag::Sqrt(
      ag::AddScalar(ag::Sum(ag::Sum(sq, 0, true), 1, true), 1e-8f));
  return ag::Mul(ag::Div(v_, norm), gain_);
}

ag::VarPtr CausalConv1d::Forward(const VarPtr& x) const {
  RTGCN_CHECK_EQ(x->value.ndim(), 3);
  RTGCN_CHECK_EQ(x->value.dim(2), in_channels_);
  return FusedCausalConv(x, EffectiveWeight(), bias_, dilation_, stride_);
}

TemporalConvBlock::TemporalConvBlock(int64_t in_channels, int64_t out_channels,
                                     int64_t kernel_size, Rng* rng,
                                     int64_t dilation, int64_t stride,
                                     float dropout)
    : conv1_(in_channels, out_channels, kernel_size, rng, /*dilation=*/1,
             stride),
      conv2_(out_channels, out_channels, kernel_size, rng, dilation, stride),
      dropout_(dropout) {
  RegisterModule(&conv1_);
  RegisterModule(&conv2_);
  if (in_channels != out_channels || stride > 1) {
    downsample_ = std::make_unique<CausalConv1d>(
        in_channels, out_channels, /*kernel_size=*/1, rng, /*dilation=*/1,
        /*stride=*/stride * stride, /*weight_norm=*/false);
    RegisterModule(downsample_.get());
  }
}

ag::VarPtr TemporalConvBlock::Forward(const VarPtr& x, Rng* rng) const {
  VarPtr h = ag::Relu(conv1_.Forward(x));
  h = ag::Dropout(h, dropout_, training(), rng, /*spatial_axis=*/2);
  h = ag::Relu(conv2_.Forward(h));
  h = ag::Dropout(h, dropout_, training(), rng, /*spatial_axis=*/2);

  // The projection runs at the block's total stride, so it reads only the
  // kept times (ceil(T/s²) positions, last-sample aligned with the conv
  // path); it is pointwise in time, so this equals projecting every time
  // and then downsampling.
  VarPtr res = downsample_ ? downsample_->Forward(x) : x;
  return ag::Relu(ag::Add(h, res));
}

}  // namespace rtgcn::nn
