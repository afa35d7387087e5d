// Multi-hot stock relation tensor A ∈ {0,1}^{N×N×K} (paper §III-A).
//
// Relations are symmetric and sparse, so we store an edge list with the set
// of relation-type indices per stock pair instead of a dense rank-3 tensor.
#ifndef RTGCN_GRAPH_RELATION_TENSOR_H_
#define RTGCN_GRAPH_RELATION_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace rtgcn::graph {

/// \brief Sparse symmetric N×N×K multi-hot relation structure.
class RelationTensor {
 public:
  /// Default: empty 0-stock tensor (placeholder until assigned).
  RelationTensor() : RelationTensor(0, 0) {}

  RelationTensor(int64_t num_stocks, int64_t num_relation_types)
      : num_stocks_(num_stocks), num_types_(num_relation_types) {}

  int64_t num_stocks() const { return num_stocks_; }
  int64_t num_relation_types() const { return num_types_; }

  /// Adds relation `type` between stocks i and j (symmetric, i != j).
  /// Adding the same (i, j, type) twice is a no-op.
  Status AddRelation(int64_t i, int64_t j, int64_t type);

  /// Removes relation `type` from edge (i, j); the edge vanishes once its
  /// last type is removed. Removing an absent relation is a no-op. Used by
  /// the streaming layer when links decay (stream::RollingPipeline).
  Status RemoveRelation(int64_t i, int64_t j, int64_t type);

  bool HasEdge(int64_t i, int64_t j) const;

  /// True when relation `type` already exists on edge (i, j).
  bool HasRelation(int64_t i, int64_t j, int64_t type) const;

  /// Relation-type indices on edge (i, j); empty when no edge.
  std::vector<int32_t> Types(int64_t i, int64_t j) const;

  /// Number of connected unordered pairs.
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }

  /// Fraction of connected pairs among all N(N-1)/2 pairs (Table III's
  /// "relation ratio").
  double RelationRatio() const;

  /// Dense binary edge mask [N, N] (1 where some relation exists; zero
  /// diagonal). This is the Uniform strategy's R(A), Eq. (3).
  Tensor DenseMask() const;

  /// \brief One undirected edge with its relation types.
  struct Edge {
    int64_t i;
    int64_t j;
    std::vector<int32_t> types;
  };

  /// All edges with i < j, in deterministic (i, j) order.
  ///
  /// The enumeration is memoized: the first call after a mutation sorts the
  /// hash map into a snapshot, later calls return the same snapshot and
  /// bump the `graph.sparse.rebuild_reuse` counter — repeated CSR
  /// (re)builds over an unchanged tensor skip the enumeration entirely.
  /// The reference stays valid until the next AddRelation/RemoveRelation
  /// (copies of the tensor share the snapshot; it is immutable).
  /// Not safe to call concurrently with a mutation (first concurrent
  /// const calls are fine only after the cache is populated).
  const std::vector<Edge>& EdgeList() const;

  /// Keeps only relation types in [type_begin, type_end); used for the
  /// wiki-vs-industry ablation (Table VI). Edges left with no types vanish.
  /// Surviving types are compacted: type t becomes t - type_begin and the
  /// result reports num_relation_types() == type_end - type_begin, so
  /// models built on the view size their per-type weight vectors to the
  /// types that can actually occur (no dead `w` entries).
  RelationTensor FilterTypes(int64_t type_begin, int64_t type_end) const;

  /// Relation tensor induced on a slot subset: edges with both endpoints
  /// in `slots`, endpoints remapped to positions in `slots` (the relation
  /// input for a model trained on that sub-universe). Type space is
  /// preserved.
  RelationTensor InducedSubgraph(const std::vector<int64_t>& slots) const;

 private:
  int64_t Key(int64_t i, int64_t j) const {
    if (i > j) std::swap(i, j);
    return i * num_stocks_ + j;
  }

  int64_t num_stocks_;
  int64_t num_types_;
  std::unordered_map<int64_t, std::vector<int32_t>> edges_;
  /// Memoized EdgeList() snapshot; reset by mutations. Shared (not deep
  /// copied) across tensor copies — the pointee is immutable.
  mutable std::shared_ptr<const std::vector<Edge>> edge_list_cache_;
};

}  // namespace rtgcn::graph

#endif  // RTGCN_GRAPH_RELATION_TENSOR_H_
