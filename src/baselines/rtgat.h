// RT-GAT: the paper's attention ablation — RT-GCN's relational graph
// convolution replaced by a graph attention network (Velickovic et al.),
// keeping the temporal convolution stack. Edges connect any pair with at
// least one relation (the paper's construction for this baseline).
#ifndef RTGCN_BASELINES_RTGAT_H_
#define RTGCN_BASELINES_RTGAT_H_

#include <memory>
#include <string>

#include "graph/gat.h"
#include "graph/relation_tensor.h"
#include "harness/gradient_predictor.h"
#include "nn/linear.h"
#include "nn/temporal_conv.h"

namespace rtgcn::baselines {

/// \brief RT-GAT ranking baseline.
class RtGatPredictor : public harness::GradientPredictor {
 public:
  RtGatPredictor(const graph::RelationTensor& relations, int64_t num_features,
                 int64_t filters, float alpha, uint64_t seed);

  std::string name() const override { return "RT-GAT"; }

 protected:
  nn::Module* module() override { return &net_; }
  ag::VarPtr Forward(const Tensor& features, Rng* rng) override;
  float alpha() const override { return alpha_; }

 private:
  struct Net : nn::Module {
    Net(const graph::RelationTensor& relations, int64_t num_features,
        int64_t filters, Rng* rng)
        : gat(relations, num_features, filters, rng),
          temporal(filters, filters, 3, rng, 1, 2, 0.1f),
          scorer(filters, 1, rng) {
      RegisterModule(&gat);
      RegisterModule(&temporal);
      RegisterModule(&scorer);
    }
    graph::GatLayer gat;
    nn::TemporalConvBlock temporal;
    nn::Linear scorer;
  };

  float alpha_;
  Rng init_rng_;
  Net net_;
};

}  // namespace rtgcn::baselines

#endif  // RTGCN_BASELINES_RTGAT_H_
