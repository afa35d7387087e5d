// RSR: Relational Stock Ranking (Feng et al., TOIS 2019) — the paper's
// strongest baseline. Two-step architecture: an LSTM encodes each stock's
// window into a sequential embedding, then a temporal graph convolution
// revises embeddings using stock relations. Two relation-strength variants:
//   * RSR_E (explicit): strength_ij from the relation vector, w^T a_ij + b;
//   * RSR_I (implicit): strength_ij from embedding similarity on related
//     pairs.
// Scores come from an FC on [sequential ‖ relational] embeddings; training
// uses the same combined regression + ranking loss.
#ifndef RTGCN_BASELINES_RSR_H_
#define RTGCN_BASELINES_RSR_H_

#include <string>

#include "graph/relation_tensor.h"
#include "graph/sparse.h"
#include "harness/gradient_predictor.h"
#include "nn/linear.h"
#include "nn/rnn.h"

namespace rtgcn::baselines {

enum class RsrVariant { kImplicit, kExplicit };

/// \brief RSR_I / RSR_E ranking baselines.
class RsrPredictor : public harness::GradientPredictor {
 public:
  RsrPredictor(const graph::RelationTensor& relations, RsrVariant variant,
               int64_t num_features, int64_t hidden, float alpha,
               uint64_t seed);

  std::string name() const override {
    return variant_ == RsrVariant::kImplicit ? "RSR_I" : "RSR_E";
  }

 protected:
  nn::Module* module() override { return &net_; }
  ag::VarPtr Forward(const Tensor& features, Rng* rng) override;
  float alpha() const override { return alpha_; }

 private:
  struct Net : nn::Module {
    Net(const graph::RelationTensor& relations, RsrVariant variant,
        int64_t num_features, int64_t hidden, Rng* rng);

    nn::Lstm lstm;
    nn::Linear scorer;          // on [e ‖ ē]
    ag::VarPtr relation_w;      // [K] explicit relation weights
    ag::VarPtr relation_b;      // [1]
    ag::VarPtr sim_proj;        // [H, H] implicit similarity bilinear form
    // RSR_E: 1/deg row-normalized CSR, so its aggregation is O(E).
    graph::CsrPtr row_csr;
    // RSR_I only: its bilinear similarity is a dense [N, N] product, so it
    // keeps the binary relation mask (no self loops) and 1/deg [N, 1].
    Tensor mask;
    Tensor degree_inv;
  };

  RsrVariant variant_;
  float alpha_;
  Rng init_rng_;
  Net net_;
};

}  // namespace rtgcn::baselines

#endif  // RTGCN_BASELINES_RSR_H_
