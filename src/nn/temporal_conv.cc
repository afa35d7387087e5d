#include "nn/temporal_conv.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "autograd/finite_check.h"
#include "autograd/ops.h"
#include "common/thread_pool.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"

namespace rtgcn::nn {

namespace {

int64_t RoundUpLanes(int64_t channels) {
  return (channels + kernels::kTimeLanes - 1) / kernels::kTimeLanes *
         kernels::kTimeLanes;
}

// Nodes per chunk of the block's ParallelFor: about 16 chunks, a multiple
// of the avx2 kernel's 4-node groups. It depends on N only, so the
// backward's per-chunk dW/db partials, folded in chunk order, are
// bit-identical at any thread count.
int64_t NodeGrain(int64_t n) {
  constexpr int64_t kChunks = 16;
  constexpr int64_t kGroup = 4;
  const int64_t per_chunk = (n + kChunks - 1) / kChunks;
  return std::max(kGroup, (per_chunk + kGroup - 1) / kGroup * kGroup);
}

// One conv's parameters, held by the tape: v [k, in, out], gain (null
// without weight norm) and bias.
struct ConvParams {
  ag::VarPtr v, gain, bias;

  explicit ConvParams(const CausalConv1d& conv)
      : v(conv.v()), gain(conv.gain()), bias(conv.bias()) {}
  int64_t k() const { return v->value.dim(0); }
  int64_t in() const { return v->value.dim(1); }
  int64_t out() const { return v->value.dim(2); }
};

// One conv's effective filter packed as [k, in, lanes] (pad lanes zero),
// and ||v|| per output channel with weight norm. The norm is summed over
// taps first, then over input channels, each from 0, and w = (v / ||v||) ·
// gain, the IEEE sequence of the composed ops the module once ran.
struct PackedFilter {
  std::vector<float> w;
  std::vector<float> norm;  // [out], empty without weight norm
};

PackedFilter PackFilter(const ConvParams& conv, int64_t lanes) {
  const int64_t k = conv.k(), in = conv.in(), out = conv.out();
  const float* v = conv.v->value.data();
  PackedFilter f;
  f.w.assign(static_cast<size_t>(k * in * lanes), 0.0f);
  if (conv.gain == nullptr) {
    for (int64_t ic = 0; ic < k * in; ++ic) {
      std::copy_n(v + ic * out, out, f.w.begin() + ic * lanes);
    }
    return f;
  }
  std::vector<float> per_input(static_cast<size_t>(in * out), 0.0f);
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t c = 0; c < in * out; ++c) {
      const float vi = v[i * in * out + c];
      per_input[static_cast<size_t>(c)] += vi * vi;
    }
  }
  f.norm.assign(static_cast<size_t>(out), 0.0f);
  for (int64_t c = 0; c < in; ++c) {
    for (int64_t o = 0; o < out; ++o) {
      f.norm[static_cast<size_t>(o)] +=
          per_input[static_cast<size_t>(c * out + o)];
    }
  }
  for (float& norm : f.norm) norm = std::sqrt(norm + 1e-8f);
  const float* gain = conv.gain->value.data();
  for (int64_t ic = 0; ic < k * in; ++ic) {
    for (int64_t o = 0; o < out; ++o) {
      f.w[static_cast<size_t>(ic * lanes + o)] =
          (v[ic * out + o] / f.norm[static_cast<size_t>(o)]) * gain[o];
    }
  }
  return f;
}

// w [k, in, lanes] -> [k, out, in_lanes] (pad lanes zero): the filter the
// input-gradient sums read, its input channels contiguous.
std::vector<float> TransposeFilter(const std::vector<float>& w, int64_t k,
                                   int64_t in, int64_t out, int64_t lanes,
                                   int64_t in_lanes) {
  std::vector<float> wt(static_cast<size_t>(k * out * in_lanes), 0.0f);
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t c = 0; c < in; ++c) {
      for (int64_t o = 0; o < out; ++o) {
        wt[static_cast<size_t>((i * out + o) * in_lanes + c)] =
            w[static_cast<size_t>((i * in + c) * lanes + o)];
      }
    }
  }
  return wt;
}

// Adds dL/dv (and dL/dgain with weight norm) for dL/dw = dw [k, in, lanes].
// With vn = v / ||v||: dgain = Σ_{i,c} dw ⊙ vn and
// dv = (gain / ||v||) ⊙ (dw − dgain ⊙ vn), summed in double.
void AccumulateFilterGrad(const ConvParams& conv, const PackedFilter& f,
                          const float* dw, int64_t lanes) {
  const int64_t k = conv.k(), in = conv.in(), out = conv.out();
  const float* v = conv.v->value.data();
  Tensor dv = Tensor::Uninitialized(conv.v->shape());
  float* pdv = dv.data();
  if (conv.gain == nullptr) {
    for (int64_t ic = 0; ic < k * in; ++ic) {
      std::copy_n(dw + ic * lanes, out, pdv + ic * out);
    }
    if (ag::NeedsGrad(conv.v)) conv.v->AccumulateGrad(std::move(dv));
    return;
  }
  const float* gain = conv.gain->value.data();
  std::vector<double> dgain(static_cast<size_t>(out), 0.0);
  for (int64_t ic = 0; ic < k * in; ++ic) {
    for (int64_t o = 0; o < out; ++o) {
      dgain[static_cast<size_t>(o)] +=
          static_cast<double>(dw[ic * lanes + o]) * v[ic * out + o] /
          f.norm[static_cast<size_t>(o)];
    }
  }
  for (int64_t ic = 0; ic < k * in; ++ic) {
    for (int64_t o = 0; o < out; ++o) {
      const double norm = f.norm[static_cast<size_t>(o)];
      pdv[ic * out + o] = static_cast<float>(
          gain[o] / norm *
          (dw[ic * lanes + o] -
           dgain[static_cast<size_t>(o)] * v[ic * out + o] / norm));
    }
  }
  if (ag::NeedsGrad(conv.v)) conv.v->AccumulateGrad(std::move(dv));
  if (ag::NeedsGrad(conv.gain)) {
    Tensor dg = Tensor::Uninitialized(conv.gain->shape());
    for (int64_t o = 0; o < out; ++o) {
      dg.data()[o] = static_cast<float>(dgain[static_cast<size_t>(o)]);
    }
    conv.gain->AccumulateGrad(std::move(dg));
  }
}

// [lanes] copy of a bias (pad lanes zero).
std::vector<float> PadBias(const ConvParams& conv, int64_t lanes) {
  std::vector<float> b(static_cast<size_t>(lanes), 0.0f);
  std::copy_n(conv.bias->value.data(), conv.out(), b.begin());
  return b;
}

// dL/dbias from its [lanes] accumulator.
void AccumulateBiasGrad(const ConvParams& conv, const float* db) {
  if (!ag::NeedsGrad(conv.bias)) return;
  Tensor t = Tensor::Uninitialized(conv.bias->shape());
  std::copy_n(db, conv.out(), t.data());
  conv.bias->AccumulateGrad(std::move(t));
}

// Spatial-dropout multipliers of `out` channels, drawn as ag::Dropout draws
// them: one Bernoulli(p) per channel, 0 when dropped, else 1/(1-p). All 1,
// with no draw, outside training or at p = 0.
std::vector<float> DropoutMask(float p, bool training, Rng* rng, int64_t out,
                               int64_t lanes) {
  std::vector<float> mask(static_cast<size_t>(lanes), 1.0f);
  if (!training || p <= 0.0f) return mask;
  RTGCN_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  for (int64_t o = 0; o < out; ++o) {
    mask[static_cast<size_t>(o)] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  return mask;
}

// What one block call computes with and what its backward reads: the
// geometry tables, the packed parameters and masks, and (with a tape) the
// saved pre-activations.
struct BlockState {
  int64_t t_len = 0, n = 0, in = 0, out = 0, lanes = 0, in_lanes = 0, k = 0;
  std::vector<int64_t> tap1, tap2, res_time;
  PackedFilter f1, f2, fr;  // fr.w is empty for an identity residual
  std::vector<float> b1, b2, br, mask1, mask2;
  Tensor z1, z2;  // [N, rows1 | rows2, lanes] pre-activations, if kept

  int64_t rows1() const { return static_cast<int64_t>(tap1.size()) / k; }
  int64_t rows2() const { return static_cast<int64_t>(res_time.size()); }

  // The forward's plan; the backward adds the transposed filters.
  kernels::TemporalBlockPlan Plan() const {
    return {.t_len = t_len,
            .n = n,
            .in = in,
            .out = out,
            .lanes = lanes,
            .in_lanes = in_lanes,
            .k = k,
            .rows1 = rows1(),
            .rows2 = rows2(),
            .tap1 = tap1.data(),
            .tap2 = tap2.data(),
            .res_time = res_time.data(),
            .w1 = f1.w.data(),
            .b1 = b1.data(),
            .mask1 = mask1.data(),
            .w2 = f2.w.data(),
            .b2 = b2.data(),
            .mask2 = mask2.data(),
            .wr = fr.w.empty() ? nullptr : fr.w.data(),
            .br = br.data(),
            .w1t = nullptr,
            .w2t = nullptr,
            .wrt = nullptr};
  }
};

// The tap tables of a block over T input times. conv1 output position q
// sits at x time (T-1) % s + q·s and conv2 output m at conv1 position
// (T1-1) % s + m·s (T1 = ceil(T/s)), each tap i reading (k-1-i) dilations
// back. Only the conv1 positions some conv2 tap reads get a row, in time
// order; the residual reads x time (T-1) % s² + m·s².
void BuildTaps(int64_t t_len, int64_t stride, int64_t dilation,
               BlockState* s) {
  const int64_t k = s->k;
  const int64_t t1 = (t_len + stride - 1) / stride;
  const int64_t t2 = (t1 + stride - 1) / stride;
  const int64_t start1 = (t_len - 1) % stride;
  const int64_t start2 = (t1 - 1) % stride;
  std::vector<int64_t> row_of(static_cast<size_t>(t1), -1);
  for (int64_t m = 0; m < t2; ++m) {
    for (int64_t i = 0; i < k; ++i) {
      const int64_t q = start2 + m * stride - (k - 1 - i) * dilation;
      if (q >= 0) row_of[static_cast<size_t>(q)] = 0;
    }
  }
  int64_t rows1 = 0;
  for (int64_t q = 0; q < t1; ++q) {
    if (row_of[static_cast<size_t>(q)] < 0) continue;
    row_of[static_cast<size_t>(q)] = rows1++;
    for (int64_t i = 0; i < k; ++i) {
      const int64_t t = start1 + q * stride - (k - 1 - i);
      s->tap1.push_back(t >= 0 ? t : -1);
    }
  }
  const int64_t res_step = stride * stride;
  for (int64_t m = 0; m < t2; ++m) {
    for (int64_t i = 0; i < k; ++i) {
      const int64_t q = start2 + m * stride - (k - 1 - i) * dilation;
      s->tap2.push_back(q >= 0 ? row_of[static_cast<size_t>(q)] : -1);
    }
    s->res_time.push_back((t_len - 1) % res_step + m * res_step);
  }
}

}  // namespace

CausalConv1d::CausalConv1d(int64_t in_channels, int64_t out_channels,
                           int64_t kernel_size, Rng* rng, int64_t dilation,
                           int64_t stride, bool weight_norm)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      dilation_(dilation),
      stride_(stride) {
  RTGCN_CHECK_GE(kernel_size, 1);
  RTGCN_CHECK_GE(dilation, 1);
  RTGCN_CHECK_GE(stride, 1);
  const int64_t fan_in = kernel_size * in_channels;
  v_ = RegisterParameter(
      "v", KaimingUniform({kernel_size, in_channels, out_channels}, fan_in,
                          rng));
  if (weight_norm) {
    // Initialize the gain to the initial per-channel norm so the effective
    // weight starts equal to v (standard weight-norm initialization).
    Tensor norms = rtgcn::Sqrt(rtgcn::Sum(
        rtgcn::Sum(rtgcn::Square(v_->value), 0, true), 1, true));
    gain_ = RegisterParameter("gain", norms);
  }
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_channels}));
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
  RTGCN_CHECK_EQ(x->value.ndim(), 3);
  RTGCN_CHECK_EQ(x->value.dim(2), conv1_.in_channels());
  auto s = std::make_shared<BlockState>();
  s->t_len = x->value.dim(0);
  s->n = x->value.dim(1);
  s->in = conv1_.in_channels();
  s->out = conv1_.out_channels();
  s->lanes = RoundUpLanes(s->out);
  s->in_lanes = RoundUpLanes(s->in);
  s->k = conv1_.kernel_size();
  BuildTaps(s->t_len, conv1_.stride(), conv2_.dilation(), s.get());
  s->mask1 = DropoutMask(dropout_, training(), rng, s->out, s->lanes);
  s->mask2 = DropoutMask(dropout_, training(), rng, s->out, s->lanes);
  const ConvParams c1(conv1_), c2(conv2_);
  s->f1 = PackFilter(c1, s->lanes);
  s->f2 = PackFilter(c2, s->lanes);
  s->b1 = PadBias(c1, s->lanes);
  s->b2 = PadBias(c2, s->lanes);
  std::optional<ConvParams> cr;
  if (downsample_) {
    cr.emplace(*downsample_);
    s->fr = PackFilter(*cr, s->lanes);
    s->br = PadBias(*cr, s->lanes);
  } else {
    s->br.assign(static_cast<size_t>(s->lanes), 0.0f);
  }
  std::vector<VarPtr> parents{x};
  auto add_parents = [&parents](const ConvParams& conv) {
    parents.push_back(conv.v);
    if (conv.gain) parents.push_back(conv.gain);
    parents.push_back(conv.bias);
  };
  add_parents(c1);
  add_parents(c2);
  if (cr) add_parents(*cr);

  // Pre-activations are kept only for a backward or for the finite checks,
  // which scan them: the ReLUs map a NaN to 0 before the output is scanned.
  const bool check = ag::FiniteChecks::enabled();
  const bool backward =
      ag::GradMode::enabled() &&
      std::any_of(parents.begin(), parents.end(),
                  [](const VarPtr& p) { return ag::NeedsGrad(p); });
  if (check || backward) {
    s->z1 = Tensor::Uninitialized({s->n, s->rows1(), s->lanes});
    s->z2 = Tensor::Uninitialized({s->n, s->rows2(), s->lanes});
  }
  Tensor y = Tensor::Uninitialized({s->rows2(), s->n, s->out});
  {
    const kernels::KernelSet& ks = kernels::Active();
    const kernels::TemporalBlockPlan plan = s->Plan();
    const float* px = x->value.data();
    float* py = y.data();
    ParallelFor(0, s->n, NodeGrain(s->n), [&](int64_t lo, int64_t hi) {
      ks.temporal_block_forward_rows(plan, px, lo, hi, py, s->z1.data(),
                                     s->z2.data());
    });
  }
  if (check) {
    ag::FiniteChecks::Observe("TemporalConvBlock", "forward", s->z1);
    ag::FiniteChecks::Observe("TemporalConvBlock", "forward", s->z2);
    if (cr) {
      // The projection's filter and bias reach y only through the final
      // ReLU.
      ag::FiniteChecks::Observe("TemporalConvBlock", "forward", cr->v->value);
      ag::FiniteChecks::Observe("TemporalConvBlock", "forward",
                                cr->bias->value);
    }
  }
  return ag::MakeOp(
      "TemporalConvBlock", y, std::move(parents),
      [s, x, y, c1, c2, cr](const Tensor& g) {
        const int64_t k = s->k, in = s->in, out = s->out, lanes = s->lanes;
        // The filters transposed for the input-gradient sums.
        const std::vector<float> w1t =
            TransposeFilter(s->f1.w, k, in, out, lanes, s->in_lanes);
        const std::vector<float> w2t =
            TransposeFilter(s->f2.w, k, out, out, lanes, lanes);
        const std::vector<float> wrt =
            cr ? TransposeFilter(s->fr.w, 1, in, out, lanes, s->in_lanes)
               : std::vector<float>();
        kernels::TemporalBlockPlan plan = s->Plan();
        plan.w1t = w1t.data();
        plan.w2t = w2t.data();
        plan.wrt = cr ? wrt.data() : nullptr;

        // Parameter-gradient partials, one slab per chunk, folded in chunk
        // order.
        const int64_t w1_size = k * in * lanes;
        const int64_t w2_size = k * out * lanes;
        const int64_t wr_size = in * lanes;
        const int64_t slab = w1_size + w2_size + wr_size + 3 * lanes;
        auto grads_at = [&](float* base) {
          kernels::TemporalBlockGrads gr;
          gr.w1 = base;
          gr.b1 = gr.w1 + w1_size;
          gr.w2 = gr.b1 + lanes;
          gr.b2 = gr.w2 + w2_size;
          gr.wr = gr.b2 + lanes;
          gr.br = gr.wr + wr_size;
          return gr;
        };
        const int64_t grain = NodeGrain(s->n);
        const int64_t chunks = NumChunks(0, s->n, grain);
        std::vector<float> partials(static_cast<size_t>(chunks * slab), 0.0f);
        const bool need_x = ag::NeedsGrad(x);
        Tensor dx = need_x ? Tensor::Uninitialized(x->shape()) : Tensor();
        const kernels::KernelSet& ks = kernels::Active();
        ParallelFor(0, chunks, 1, [&](int64_t cb, int64_t ce) {
          for (int64_t c = cb; c < ce; ++c) {
            const int64_t lo = c * grain;
            ks.temporal_block_backward_rows(
                plan, x->value.data(), y.data(), s->z1.data(), s->z2.data(),
                g.data(), lo, std::min(s->n, lo + grain),
                grads_at(partials.data() + c * slab),
                need_x ? dx.data() : nullptr);
          }
        });
        std::vector<float> total(static_cast<size_t>(slab), 0.0f);
        for (int64_t c = 0; c < chunks; ++c) {
          const float* part = partials.data() + c * slab;
          for (int64_t e = 0; e < slab; ++e) {
            total[static_cast<size_t>(e)] += part[e];
          }
        }
        const kernels::TemporalBlockGrads sum = grads_at(total.data());
        AccumulateFilterGrad(c1, s->f1, sum.w1, lanes);
        AccumulateBiasGrad(c1, sum.b1);
        AccumulateFilterGrad(c2, s->f2, sum.w2, lanes);
        AccumulateBiasGrad(c2, sum.b2);
        if (cr) {
          AccumulateFilterGrad(*cr, s->fr, sum.wr, lanes);
          AccumulateBiasGrad(*cr, sum.br);
        }
        if (need_x) x->AccumulateGrad(std::move(dx));
      });
}

}  // namespace rtgcn::nn
