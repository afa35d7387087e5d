// Graph attention layer (Velickovic et al.), used by the RT-GAT baseline.
#ifndef RTGCN_GRAPH_GAT_H_
#define RTGCN_GRAPH_GAT_H_

#include "graph/sparse.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace rtgcn::graph {

/// \brief Single-head GAT layer over the relation structure.
///
/// e_ij = LeakyReLU(a_src · Wh_i + a_dst · Wh_j), softmax over the related
/// neighborhood (self loops included), h'_i = Σ_j α_ij W h_j.
class GatLayer : public nn::Module {
 public:
  /// The attention support is every related pair plus self loops, held in
  /// CSR form; Forward runs a fused per-row softmax over its entries.
  GatLayer(const RelationTensor& relations, int64_t in_features,
           int64_t out_features, Rng* rng, float leaky_slope = 0.2f);

  /// x: [N, in] -> [N, out].
  ag::VarPtr Forward(const ag::VarPtr& x) const;

  /// Dense [N, N] attention matrix Forward applies to x [N, in].
  /// Recomputes the attention op without gradients, so Forward never pays
  /// O(N²) for this diagnostic and never writes layer state.
  Tensor Attention(const Tensor& x) const;

 private:
  CsrPtr csr_;  // mask with self loops, coefficients 1
  int64_t in_features_;
  int64_t out_features_;
  float leaky_slope_;
  ag::VarPtr weight_;  // [in, out]
  ag::VarPtr a_src_;   // [out, 1]
  ag::VarPtr a_dst_;   // [out, 1]
};

}  // namespace rtgcn::graph

#endif  // RTGCN_GRAPH_GAT_H_
