#include "graph/gat.h"

#include "autograd/ops.h"
#include "tensor/init.h"

namespace rtgcn::graph {

GatLayer::GatLayer(const RelationTensor& relations, int64_t in_features,
                   int64_t out_features, Rng* rng, float leaky_slope)
    : csr_(CsrGraph::UniformMask(relations, /*add_self_loops=*/true)),
      in_features_(in_features),
      out_features_(out_features),
      leaky_slope_(leaky_slope) {
  weight_ = RegisterParameter(
      "weight",
      XavierUniform({in_features_, out_features_}, in_features_,
                    out_features_, rng));
  a_src_ = RegisterParameter(
      "a_src", XavierUniform({out_features_, 1}, out_features_, 1, rng));
  a_dst_ = RegisterParameter(
      "a_dst", XavierUniform({out_features_, 1}, out_features_, 1, rng));
}

ag::VarPtr GatLayer::Forward(const ag::VarPtr& x) const {
  RTGCN_CHECK_EQ(x->value.ndim(), 2);
  RTGCN_CHECK_EQ(x->value.dim(1), in_features_);
  ag::VarPtr h = ag::MatMul(x, weight_);   // [N, out]
  ag::VarPtr src = ag::MatMul(h, a_src_);  // [N, 1]
  ag::VarPtr dst = ag::MatMul(h, a_dst_);  // [N, 1]
  return SparseGatAttention(csr_, src, dst, h, leaky_slope_);
}

Tensor GatLayer::Attention(const Tensor& x) const {
  ag::NoGradGuard no_grad;
  const ag::VarPtr h = ag::MatMul(ag::Constant(x), weight_);
  Tensor alpha;
  SparseGatAttention(csr_, ag::MatMul(h, a_src_), ag::MatMul(h, a_dst_), h,
                     leaky_slope_, &alpha);
  return csr_->Densify(alpha.data());
}

}  // namespace rtgcn::graph
