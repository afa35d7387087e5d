// Causal temporal convolution block (TCN) of RT-GCN's temporal module
// (paper §IV-C, Fig. 4): two causal 1-D convolutions over the time axis,
// each with weight-normalized filters, ReLU and spatial dropout, plus a
// residual connection and a final ReLU.
//
// The block operates on tensors shaped [T, N, C] — time-major, with the N
// stocks acting as the batch dimension — and runs as one autograd op,
// "TemporalConvBlock". One ParallelFor over nodes reads each node's T rows
// of x in place; conv1 computes only the output times conv2's kept taps
// read, and the backward writes dX per node and folds per-chunk dW/db
// partials in chunk order, so every value is bit-identical at any thread
// count. The kernels are KernelSet entries (tensor/kernels/kernels.h);
// DESIGN.md §5 gives the layout and the sum orders.
#ifndef RTGCN_NN_TEMPORAL_CONV_H_
#define RTGCN_NN_TEMPORAL_CONV_H_

#include "nn/module.h"

namespace rtgcn::nn {

/// \brief Parameters of one causal 1-D convolution of TemporalConvBlock.
///
/// Output at time t sees inputs t, t-dilation, ..., t-(k-1)*dilation only
/// (left zero padding), so no future leakage (WaveNet-style causality).
/// With `stride > 1` the output keeps times {..., T-1-stride, T-1}, the
/// last sample aligned, shrinking T to ceil(T/stride). With `weight_norm`
/// the effective filter is w = gain * v / ||v||, the norm taken per output
/// channel over (k, in) (Salimans & Kingma). The module holds `v`
/// [k, in, out], `gain` [1, 1, out] (weight norm only) and `bias` [out];
/// the block's fused op reads them.
class CausalConv1d : public Module {
 public:
  CausalConv1d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
               Rng* rng, int64_t dilation = 1, int64_t stride = 1,
               bool weight_norm = true);

  int64_t out_length(int64_t in_length) const {
    return (in_length + stride_ - 1) / stride_;
  }
  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel_size() const { return kernel_size_; }
  int64_t dilation() const { return dilation_; }
  int64_t stride() const { return stride_; }

  const VarPtr& v() const { return v_; }
  /// Null without weight norm.
  const VarPtr& gain() const { return gain_; }
  const VarPtr& bias() const { return bias_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_size_;
  int64_t dilation_;
  int64_t stride_;
  VarPtr v_;     // direction parameter [k, in, out]
  VarPtr gain_;  // per-output-channel gain [1, 1, out] (weight norm only)
  VarPtr bias_;  // [out]
};

/// \brief Residual TCN block: conv -> ReLU -> spatial dropout, twice, plus a
/// residual connection (a 1x1 projection when the channel counts or the
/// time lengths differ), final ReLU.
class TemporalConvBlock : public Module {
 public:
  /// Both convolutions move with `stride`, so the block compresses time by
  /// stride² (the paper's "change the filter moving strides to expand the
  /// receptive field"). The second convolution is dilated by `dilation`.
  /// Both are weight-normalized; the residual projection is not.
  TemporalConvBlock(int64_t in_channels, int64_t out_channels,
                    int64_t kernel_size, Rng* rng, int64_t dilation = 1,
                    int64_t stride = 1, float dropout = 0.1f);

  /// x: [T, N, in] -> [out_length(T), N, out]. In training mode with
  /// dropout > 0 it draws conv1's `out` channel masks from `rng`, then
  /// conv2's, one Bernoulli each.
  VarPtr Forward(const VarPtr& x, Rng* rng) const;

  int64_t out_length(int64_t in_length) const {
    return conv2_.out_length(conv1_.out_length(in_length));
  }

 private:
  CausalConv1d conv1_;
  CausalConv1d conv2_;
  // Residual projection at the block's total stride (unit kernel).
  std::unique_ptr<CausalConv1d> downsample_;
  float dropout_;
};

}  // namespace rtgcn::nn

#endif  // RTGCN_NN_TEMPORAL_CONV_H_
