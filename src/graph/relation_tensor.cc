#include "graph/relation_tensor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/registry.h"

namespace rtgcn::graph {

Status RelationTensor::AddRelation(int64_t i, int64_t j, int64_t type) {
  if (i < 0 || i >= num_stocks_ || j < 0 || j >= num_stocks_) {
    return Status::OutOfRange("stock index (", i, ", ", j,
                              ") out of range for N=", num_stocks_);
  }
  if (i == j) {
    return Status::InvalidArgument("self relation on stock ", i);
  }
  if (type < 0 || type >= num_types_) {
    return Status::OutOfRange("relation type ", type, " out of range for K=",
                              num_types_);
  }
  auto& types = edges_[Key(i, j)];
  if (std::find(types.begin(), types.end(), static_cast<int32_t>(type)) ==
      types.end()) {
    types.push_back(static_cast<int32_t>(type));
    edge_list_cache_.reset();
  }
  return Status::OK();
}

Status RelationTensor::RemoveRelation(int64_t i, int64_t j, int64_t type) {
  if (i < 0 || i >= num_stocks_ || j < 0 || j >= num_stocks_) {
    return Status::OutOfRange("stock index (", i, ", ", j,
                              ") out of range for N=", num_stocks_);
  }
  if (i == j) {
    return Status::InvalidArgument("self relation on stock ", i);
  }
  if (type < 0 || type >= num_types_) {
    return Status::OutOfRange("relation type ", type, " out of range for K=",
                              num_types_);
  }
  auto it = edges_.find(Key(i, j));
  if (it == edges_.end()) return Status::OK();
  auto& types = it->second;
  auto pos =
      std::find(types.begin(), types.end(), static_cast<int32_t>(type));
  if (pos == types.end()) return Status::OK();
  types.erase(pos);
  if (types.empty()) edges_.erase(it);
  edge_list_cache_.reset();
  return Status::OK();
}

bool RelationTensor::HasEdge(int64_t i, int64_t j) const {
  if (i == j) return false;
  return edges_.count(Key(i, j)) > 0;
}

bool RelationTensor::HasRelation(int64_t i, int64_t j, int64_t type) const {
  if (i == j) return false;
  auto it = edges_.find(Key(i, j));
  if (it == edges_.end()) return false;
  return std::find(it->second.begin(), it->second.end(),
                   static_cast<int32_t>(type)) != it->second.end();
}

std::vector<int32_t> RelationTensor::Types(int64_t i, int64_t j) const {
  if (i == j) return {};
  auto it = edges_.find(Key(i, j));
  if (it == edges_.end()) return {};
  return it->second;
}

double RelationTensor::RelationRatio() const {
  const double pairs =
      static_cast<double>(num_stocks_) * (num_stocks_ - 1) / 2.0;
  return pairs == 0 ? 0.0 : static_cast<double>(edges_.size()) / pairs;
}

// Hash-map buckets cannot be range-split, so densification snapshots the
// keys and parallelizes over the snapshot. Every key owns a distinct
// (i,j)/(j,i) cell pair, so chunked writes never collide, and the written
// value is a constant — the result is identical at any thread count.
Tensor RelationTensor::DenseMask() const {
  std::vector<int64_t> keys;
  keys.reserve(edges_.size());
  for (const auto& kv : edges_) keys.push_back(kv.first);
  const int64_t n = num_stocks_;
  Tensor mask = Tensor::Zeros({n, n});
  float* p = mask.data();
  ParallelFor(0, static_cast<int64_t>(keys.size()), 512,
              [&](int64_t lo, int64_t hi) {
                for (int64_t e = lo; e < hi; ++e) {
                  const int64_t i = keys[e] / n;
                  const int64_t j = keys[e] % n;
                  p[i * n + j] = 1.0f;
                  p[j * n + i] = 1.0f;
                }
              });
  return mask;
}

const std::vector<RelationTensor::Edge>& RelationTensor::EdgeList() const {
  if (edge_list_cache_) {
    obs::Registry::Global()
        .GetCounter("graph.sparse.rebuild_reuse")
        ->Increment();
    return *edge_list_cache_;
  }
  auto out = std::make_shared<std::vector<Edge>>();
  out->reserve(edges_.size());
  for (const auto& [key, types] : edges_) {
    Edge e;
    e.i = key / num_stocks_;
    e.j = key % num_stocks_;
    e.types = types;
    std::sort(e.types.begin(), e.types.end());
    out->push_back(std::move(e));
  }
  std::sort(out->begin(), out->end(), [](const Edge& a, const Edge& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  });
  edge_list_cache_ = std::move(out);
  return *edge_list_cache_;
}

RelationTensor RelationTensor::FilterTypes(int64_t type_begin,
                                           int64_t type_end) const {
  type_begin = std::max<int64_t>(type_begin, 0);
  type_end = std::min(type_end, num_types_);
  // Compact the surviving range to [0, type_end - type_begin): the view
  // must not report relation types that can never occur, or models built
  // on it (Table VI ablation) train dead per-type weights.
  RelationTensor out(num_stocks_, std::max<int64_t>(type_end - type_begin, 0));
  for (const auto& [key, types] : edges_) {
    const int64_t i = key / num_stocks_;
    const int64_t j = key % num_stocks_;
    for (int32_t t : types) {
      if (t >= type_begin && t < type_end) {
        out.AddRelation(i, j, t - type_begin).Abort();
      }
    }
  }
  return out;
}

RelationTensor RelationTensor::InducedSubgraph(
    const std::vector<int64_t>& slots) const {
  std::vector<int64_t> pos(static_cast<size_t>(num_stocks_), -1);
  for (size_t k = 0; k < slots.size(); ++k) {
    RTGCN_CHECK(slots[k] >= 0 && slots[k] < num_stocks_);
    pos[static_cast<size_t>(slots[k])] = static_cast<int64_t>(k);
  }
  RelationTensor out(static_cast<int64_t>(slots.size()), num_types_);
  for (const auto& e : EdgeList()) {
    const int64_t pi = pos[static_cast<size_t>(e.i)];
    const int64_t pj = pos[static_cast<size_t>(e.j)];
    if (pi < 0 || pj < 0) continue;
    for (int32_t t : e.types) out.AddRelation(pi, pj, t).Abort();
  }
  return out;
}

}  // namespace rtgcn::graph
