#include "baselines/rsr.h"

#include "autograd/ops.h"
#include "tensor/init.h"

namespace rtgcn::baselines {

RsrPredictor::Net::Net(const graph::RelationTensor& relations,
                       RsrVariant variant, int64_t num_features,
                       int64_t hidden, Rng* rng)
    : lstm(num_features, hidden, rng), scorer(2 * hidden, 1, rng) {
  RegisterModule(&lstm);
  RegisterModule(&scorer);
  relation_w = RegisterParameter(
      "relation_w",
      RandomGaussian({relations.num_relation_types()}, 1.0f, 0.1f, rng));
  relation_b = RegisterParameter("relation_b", Tensor::Zeros({1}));
  sim_proj = RegisterParameter(
      "sim_proj", XavierUniform({hidden, hidden}, hidden, hidden, rng));
  if (variant == RsrVariant::kExplicit) {
    // Explicit strength is a per-edge function of the relation types, so
    // the whole aggregation stays O(E); no dense mask is ever built.
    row_csr = graph::CsrGraph::RowNormalized(relations);
    return;
  }
  mask = relations.DenseMask();
  const int64_t n = relations.num_stocks();
  degree_inv = Tensor({n, 1});
  for (int64_t i = 0; i < n; ++i) {
    double deg = 0;
    for (int64_t j = 0; j < n; ++j) deg += mask.data()[i * n + j];
    degree_inv.data()[i] = deg > 0 ? static_cast<float>(1.0 / deg) : 0.0f;
  }
}

RsrPredictor::RsrPredictor(const graph::RelationTensor& relations,
                           RsrVariant variant, int64_t num_features,
                           int64_t hidden, float alpha, uint64_t seed)
    : variant_(variant),
      alpha_(alpha),
      init_rng_(seed),
      net_(relations, variant, num_features, hidden, &init_rng_) {}

ag::VarPtr RsrPredictor::Forward(const Tensor& features, Rng* /*rng*/) {
  const int64_t n = features.dim(1);
  // Step 1: sequential embeddings (the LSTM bottleneck the paper's Fig. 5
  // speed comparison attributes RSR's slowness to).
  ag::VarPtr e = net_.lstm.ForwardLast(ag::Constant(features));  // [N, H]

  // Step 2: degree-normalized neighbor aggregation ē = D^{-1} (S ⊙ M) e
  // with relation strength S on related pairs.
  ag::VarPtr rel;
  if (variant_ == RsrVariant::kExplicit) {
    // Explicit S_ij = w^T a_ij + b as a fused edge-weight SpMM; the
    // row-normalized CSR has no self loops, so M's diagonal stays zero.
    rel = graph::SparseEdgeWeightPropagate(net_.row_csr, net_.relation_w,
                                           net_.relation_b, e);
  } else {
    // Implicit: bilinear embedding similarity, masked to related pairs.
    ag::VarPtr sim = ag::MatMul(ag::MatMul(e, net_.sim_proj),
                                ag::Transpose(e));
    ag::VarPtr strength =
        ag::LeakyRelu(ag::Mul(sim, ag::Constant(net_.mask)), 0.2f);
    ag::VarPtr masked = ag::Mul(strength, ag::Constant(net_.mask));
    rel = ag::Mul(ag::MatMul(masked, e), ag::Constant(net_.degree_inv));
  }
  ag::VarPtr joint = ag::ConcatOp({e, rel}, 1);  // [N, 2H]
  return ag::Reshape(net_.scorer.Forward(joint), {n});
}

}  // namespace rtgcn::baselines
