// Dense [N, N] relation-graph formulas: the test oracle for the sparse CSR
// path in src/graph/sparse.h. Kipf–Welling symmetric normalization
// (Eq. 1–2), the Eq. 4 per-edge relation weights and GAT's masked row
// softmax, each materialized as a full [N, N] matrix. No production code
// links this; graph_checker.h and the tests compare the CSR ops against it.
#ifndef RTGCN_TESTS_DENSE_GRAPH_ORACLE_H_
#define RTGCN_TESTS_DENSE_GRAPH_ORACLE_H_

#include "autograd/variable.h"
#include "graph/relation_tensor.h"

namespace rtgcn::graph {

/// Â = D̃^{-1/2} (A + I) D̃^{-1/2} for a dense binary adjacency [N, N].
/// Isolated nodes reduce to the identity row (self loop only).
Tensor NormalizedAdjacency(const Tensor& binary_adjacency);

/// Convenience: normalized adjacency of the relation tensor's edge mask —
/// exactly the Uniform-strategy propagation matrix.
Tensor NormalizedAdjacency(const RelationTensor& relations);

/// \brief Differentiable per-edge relation weights (Eq. 4's A_ij^T w + b).
///
/// Produces a dense [N, N] matrix S with S_ij = Σ_{k ∈ types(i,j)} w_k + b
/// on edges (symmetric) and S_ii = 1 on the diagonal (self loops keep unit
/// weight so a node always retains its own features); zero elsewhere.
/// Gradients flow to w ([K]) and b ([1]).
ag::VarPtr RelationEdgeWeights(const RelationTensor& relations,
                               const ag::VarPtr& w, const ag::VarPtr& b);

/// Masked row-softmax used by GAT: entries where mask == 0 contribute
/// nothing; rows with no unmasked entries become all zeros.
ag::VarPtr MaskedRowSoftmax(const ag::VarPtr& scores, const Tensor& mask);

}  // namespace rtgcn::graph

#endif  // RTGCN_TESTS_DENSE_GRAPH_ORACLE_H_
