#include "dense_graph_oracle.h"

#include <cmath>

#include "autograd/ops.h"
#include "common/thread_pool.h"

namespace rtgcn::graph {

Tensor NormalizedAdjacency(const Tensor& binary_adjacency) {
  RTGCN_CHECK_EQ(binary_adjacency.ndim(), 2);
  const int64_t n = binary_adjacency.dim(0);
  RTGCN_CHECK_EQ(binary_adjacency.dim(1), n);
  // Ã = A + I
  Tensor a_tilde = binary_adjacency.Clone();
  float* pa = a_tilde.data();
  for (int64_t i = 0; i < n; ++i) pa[i * n + i] = 1.0f;
  // D̃_ii = Σ_j Ã_ij — rows are independent, so split over i.
  std::vector<float> inv_sqrt_deg(n);
  ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      double deg = 0;
      for (int64_t j = 0; j < n; ++j) deg += pa[i * n + j];
      inv_sqrt_deg[i] =
          deg > 0 ? 1.0f / std::sqrt(static_cast<float>(deg)) : 0.0f;
    }
  });
  Tensor out({n, n});
  float* po = out.data();
  ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        po[i * n + j] = inv_sqrt_deg[i] * pa[i * n + j] * inv_sqrt_deg[j];
      }
    }
  });
  return out;
}

Tensor NormalizedAdjacency(const RelationTensor& relations) {
  return NormalizedAdjacency(relations.DenseMask());
}

namespace {

// Custom autograd node for the sparse edge-weight expansion: a dense matmul
// formulation would need K dense N×N masks per forward.
class RelationEdgeWeightOp {
 public:
  static ag::VarPtr Apply(const RelationTensor& relations,
                          const ag::VarPtr& w, const ag::VarPtr& b) {
    RTGCN_CHECK_EQ(w->value.ndim(), 1);
    RTGCN_CHECK_EQ(w->value.dim(0), relations.num_relation_types());
    RTGCN_CHECK_EQ(b->value.numel(), 1);
    const int64_t n = relations.num_stocks();
    auto edges = std::make_shared<std::vector<RelationTensor::Edge>>(
        relations.EdgeList());

    Tensor s = Tensor::Zeros({n, n});
    float* ps = s.data();
    const float* pw = w->value.data();
    const float bias = b->value.data()[0];
    // Each edge owns its (i,j)/(j,i) cell pair, so edge chunks write
    // disjoint memory and the expansion parallelizes cleanly.
    const int64_t num_edges = static_cast<int64_t>(edges->size());
    ParallelFor(0, num_edges, 256, [&](int64_t lo, int64_t hi) {
      for (int64_t idx = lo; idx < hi; ++idx) {
        const auto& e = (*edges)[idx];
        float weight = bias;
        for (int32_t t : e.types) weight += pw[t];
        ps[e.i * n + e.j] = weight;
        ps[e.j * n + e.i] = weight;
      }
    });
    for (int64_t i = 0; i < n; ++i) ps[i * n + i] = 1.0f;

    auto out = std::make_shared<ag::Variable>(s);
    if (ag::GradMode::enabled() && (ag::NeedsGrad(w) || ag::NeedsGrad(b))) {
      out->parents = {w, b};
      out->backward_fn = [w, b, edges, n](const Tensor& g) {
        const float* pg = g.data();
        if (ag::NeedsGrad(w)) {
          // Deterministic chunked reduction over edges: per-chunk partial
          // gw vectors folded in chunk order reproduce the serial per-type
          // accumulation order exactly.
          const int64_t num_edges = static_cast<int64_t>(edges->size());
          const int64_t k = w->value.numel();
          std::vector<float> acc = ParallelReduce(
              0, num_edges, 256, std::vector<float>(k, 0.0f),
              [&](int64_t lo, int64_t hi) {
                std::vector<float> partial(k, 0.0f);
                for (int64_t idx = lo; idx < hi; ++idx) {
                  const auto& e = (*edges)[idx];
                  const float ge = pg[e.i * n + e.j] + pg[e.j * n + e.i];
                  for (int32_t t : e.types) partial[t] += ge;
                }
                return partial;
              },
              [k](std::vector<float> a, std::vector<float> p) {
                for (int64_t t = 0; t < k; ++t) a[t] += p[t];
                return a;
              });
          w->AccumulateGrad(Tensor(w->value.shape(), std::move(acc)));
        }
        if (ag::NeedsGrad(b)) {
          double gb = 0;
          for (const auto& e : *edges) {
            gb += pg[e.i * n + e.j] + pg[e.j * n + e.i];
          }
          b->AccumulateGrad(
              Tensor(b->value.shape(),
                     std::vector<float>(b->value.numel(),
                                        static_cast<float>(gb))));
        }
      };
    }
    return out;
  }
};

}  // namespace

ag::VarPtr RelationEdgeWeights(const RelationTensor& relations,
                               const ag::VarPtr& w, const ag::VarPtr& b) {
  return RelationEdgeWeightOp::Apply(relations, w, b);
}

ag::VarPtr MaskedRowSoftmax(const ag::VarPtr& scores, const Tensor& mask) {
  RTGCN_CHECK(scores->shape() == mask.shape());
  // scores + (mask - 1) * BIG pushes masked entries to -inf before softmax;
  // the final multiply by mask zeroes any residual probability mass on rows
  // that have no neighbors at all.
  Tensor neg = rtgcn::MulScalar(rtgcn::AddScalar(mask, -1.0f), 1e9f);
  ag::VarPtr shifted = ag::Add(scores, ag::Constant(neg));
  ag::VarPtr soft = ag::Softmax(shifted, 1);
  return ag::Mul(soft, ag::Constant(mask));
}

}  // namespace rtgcn::graph
