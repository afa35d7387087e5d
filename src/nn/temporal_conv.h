// Causal temporal convolution (TCN) used by RT-GCN's temporal module
// (paper §IV-C, Fig. 4): 1-D causal filters over the time axis with
// optional dilation and stride, weight normalization on the filters,
// residual connections and spatial dropout.
//
// All temporal modules operate on tensors shaped [T, N, C] — time-major,
// with the N stocks acting as the batch dimension.
#ifndef RTGCN_NN_TEMPORAL_CONV_H_
#define RTGCN_NN_TEMPORAL_CONV_H_

#include "nn/module.h"

namespace rtgcn::nn {

/// \brief Causal 1-D convolution over the leading (time) axis of [T, N, C].
///
/// Output at time t sees inputs t, t-dilation, ..., t-(k-1)*dilation only
/// (left zero padding), so no future leakage (WaveNet-style causality).
/// With `stride > 1` the output keeps times {stride-1, 2*stride-1, ...},
/// shrinking T and expanding the receptive field as in the paper.
/// With `weight_norm` the effective filter is w = g * v / ||v||, the norm
/// taken per output channel (Salimans & Kingma).
///
/// The convolution itself is one fused autograd op ("CausalConv1d"): it
/// reads the unpadded input, computes only the output times the stride
/// keeps, and its backward writes dX, dW and db directly. Weight norm stays
/// composed from ops on the small [k, in, out] filter.
class CausalConv1d : public Module {
 public:
  CausalConv1d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
               Rng* rng, int64_t dilation = 1, int64_t stride = 1,
               bool weight_norm = true);

  /// x: [T, N, in_channels] -> [ceil(T/stride), N, out_channels].
  VarPtr Forward(const VarPtr& x) const;

  int64_t out_length(int64_t in_length) const {
    return (in_length + stride_ - 1) / stride_;
  }
  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel_size() const { return kernel_size_; }

 private:
  /// Effective filter tensor [k, in, out] (applies weight norm if enabled).
  VarPtr EffectiveWeight() const;

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_size_;
  int64_t dilation_;
  int64_t stride_;
  bool weight_norm_;
  VarPtr v_;     // direction parameter [k, in, out]
  VarPtr gain_;  // per-output-channel gain [1, 1, out] (weight norm only)
  VarPtr bias_;  // [out]
};

/// \brief Residual TCN block: conv -> ReLU -> spatial dropout, twice, plus a
/// residual connection (1x1 conv when channel counts differ), final ReLU.
class TemporalConvBlock : public Module {
 public:
  /// Both convolutions move with `stride`, so the block compresses time by
  /// stride² (the paper's "change the filter moving strides to expand the
  /// receptive field"). The second convolution is dilated by `dilation`.
  TemporalConvBlock(int64_t in_channels, int64_t out_channels,
                    int64_t kernel_size, Rng* rng, int64_t dilation = 1,
                    int64_t stride = 1, float dropout = 0.1f);

  /// x: [T, N, in] -> [out_length(T), N, out].
  VarPtr Forward(const VarPtr& x, Rng* rng) const;

  int64_t out_length(int64_t in_length) const {
    return conv2_.out_length(conv1_.out_length(in_length));
  }

 private:
  CausalConv1d conv1_;
  CausalConv1d conv2_;
  // Residual projection matching the block's total stride (unit kernel).
  std::unique_ptr<CausalConv1d> downsample_;
  float dropout_;
};

}  // namespace rtgcn::nn

#endif  // RTGCN_NN_TEMPORAL_CONV_H_
