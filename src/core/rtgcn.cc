#include "core/rtgcn.h"

#include "autograd/ops.h"
#include "tensor/init.h"

namespace rtgcn::core {

using ag::VarPtr;

std::string StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kUniform: return "U";
    case Strategy::kWeight: return "W";
    case Strategy::kTimeSensitive: return "T";
  }
  return "?";
}

RtGcnLayer::RtGcnLayer(const graph::RelationTensor& relations,
                       const RtGcnConfig& config, int64_t in_features,
                       int64_t out_features, Rng* rng)
    : config_(config),
      in_features_(in_features),
      out_features_(out_features) {
  if (config_.use_relational) {
    // Â in CSR form: O(E) memory, never an [N, N] matrix.
    csr_ = graph::CsrGraph::NormalizedAdjacency(relations);
    theta_ = RegisterParameter(
        "theta", XavierUniform({in_features, out_features}, in_features,
                               out_features, rng));
    if (config_.strategy != Strategy::kUniform) {
      // Per-relation-type weights start at 1 (uniform) and adapt.
      relation_w_ = RegisterParameter(
          "relation_w",
          RandomGaussian({relations.num_relation_types()}, 1.0f, 0.1f, rng));
      relation_b_ = RegisterParameter("relation_b", Tensor::Zeros({1}));
    }
  } else {
    // T-Conv ablation: a plain linear lift replaces the relational conv.
    theta_ = RegisterParameter(
        "theta", XavierUniform({in_features, out_features}, in_features,
                               out_features, rng));
  }
  if (config_.use_temporal) {
    temporal_ = std::make_unique<nn::TemporalConvBlock>(
        out_features, out_features, config_.temporal_kernel, rng,
        /*dilation=*/1, config_.temporal_stride, config_.dropout);
    RegisterModule(temporal_.get());
  }
}

int64_t RtGcnLayer::out_length(int64_t in_length) const {
  return temporal_ ? temporal_->out_length(in_length) : in_length;
}

Tensor RtGcnLayer::Propagation(const Tensor& x) const {
  if (!config_.use_relational) return Tensor();
  // The same relational op Forward runs, with a local capture of its
  // per-entry values, scattered into a dense [N, N].
  ag::NoGradGuard no_grad;
  switch (config_.strategy) {
    case Strategy::kUniform:
      return csr_->Densify(csr_->coeff().data());
    case Strategy::kWeight: {
      const int64_t t_len = x.dim(0), n = x.dim(1), d = x.dim(2);
      VarPtr xn = ag::Reshape(ag::Permute(ag::Constant(x), {1, 0, 2}),
                              {n, t_len * d});
      Tensor p;
      graph::SparseEdgeWeightPropagate(csr_, relation_w_, relation_b_, xn, &p);
      return csr_->Densify(p.data());
    }
    case Strategy::kTimeSensitive: {
      graph::TimeSensitiveEdgeValues p;
      graph::SparseTimeSensitivePropagate(csr_, relation_w_, relation_b_,
                                          ag::Constant(x), &p);
      return csr_->Densify(p.TimeAverage().data());
    }
  }
  return Tensor();
}

ag::VarPtr RtGcnLayer::RelationalConv(const ag::VarPtr& x) const {
  const int64_t t_len = x->value.dim(0);
  const int64_t n = x->value.dim(1);
  const int64_t d = x->value.dim(2);
  RTGCN_CHECK_EQ(d, in_features_);

  if (!config_.use_relational) {
    // T-Conv ablation: feature lift only, no neighbor aggregation.
    VarPtr flat = ag::Reshape(x, {t_len * n, d});
    return ag::Reshape(ag::MatMul(flat, theta_), {t_len, n, out_features_});
  }

  // The three strategies over CSR entries.
  VarPtr propagated;
  switch (config_.strategy) {
    case Strategy::kUniform: {
      // Z(t) = Â X(t): fold time into the feature axis so one SpMM covers
      // all time-steps.
      VarPtr xn = ag::Reshape(ag::Permute(x, {1, 0, 2}), {n, t_len * d});
      VarPtr y = graph::SparsePropagate(csr_, xn);
      propagated = ag::Permute(ag::Reshape(y, {n, t_len, d}), {1, 0, 2});
      break;
    }
    case Strategy::kWeight: {
      // P = Â ⊙ S with S_ij = A_ij^T w + b on edges (Eq. 4); all G_R
      // share P.
      VarPtr xn = ag::Reshape(ag::Permute(x, {1, 0, 2}), {n, t_len * d});
      VarPtr y = graph::SparseEdgeWeightPropagate(csr_, relation_w_,
                                                  relation_b_, xn);
      propagated = ag::Permute(ag::Reshape(y, {n, t_len, d}), {1, 0, 2});
      break;
    }
    case Strategy::kTimeSensitive: {
      // P(t) = Â ⊙ (X(t) X(t)^T / sqrt(d)) ⊙ S: a distinct weighted
      // adjacency per time-step (Eq. 5).
      propagated = graph::SparseTimeSensitivePropagate(csr_, relation_w_,
                                                       relation_b_, x);
      break;
    }
  }
  VarPtr flat = ag::Reshape(propagated, {t_len * n, d});
  return ag::Reshape(ag::MatMul(flat, theta_), {t_len, n, out_features_});
}

ag::VarPtr RtGcnLayer::Forward(const ag::VarPtr& x, Rng* rng) const {
  VarPtr h = ag::Relu(RelationalConv(x));
  if (temporal_) h = temporal_->Forward(h, rng);
  return h;
}

RtGcnModel::RtGcnModel(const graph::RelationTensor& relations,
                       const RtGcnConfig& config, Rng* rng)
    : config_(config) {
  RTGCN_CHECK_GE(config.num_layers, 1);
  RTGCN_CHECK(config.use_relational || config.use_temporal)
      << "at least one of the relational/temporal modules must be enabled";
  int64_t in = config.num_features;
  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<RtGcnLayer>(
        relations, config, in, config.relational_filters, rng));
    RegisterModule(layers_.back().get());
    in = config.relational_filters;
  }
  scorer_ = std::make_unique<nn::Linear>(config.relational_filters, 1, rng);
  RegisterModule(scorer_.get());
}

ag::VarPtr RtGcnModel::Forward(const ag::VarPtr& x, Rng* rng) const {
  RTGCN_CHECK_EQ(x->value.ndim(), 3);
  RTGCN_CHECK_EQ(x->value.dim(2), config_.num_features);
  const int64_t n = x->value.dim(1);
  VarPtr h = x;
  for (const auto& layer : layers_) {
    h = layer->Forward(h, rng);
  }
  // Pool the remaining temporal dimension (§IV-D: average with
  // stride = remaining length).
  VarPtr pooled;
  if (config_.pooling == TemporalPooling::kMean) {
    pooled = ag::Mean(h, 0);  // [N, F]
  } else {
    const int64_t t_out = h->value.dim(0);
    pooled = ag::Reshape(ag::SliceOp(h, 0, t_out - 1, t_out),
                         {n, config_.relational_filters});
  }
  VarPtr scores = scorer_->Forward(pooled);
  return ag::Reshape(scores, {n});
}

}  // namespace rtgcn::core
