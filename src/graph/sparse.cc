#include "graph/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "autograd/ops.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/kernels/kernels.h"

namespace rtgcn::graph {

// ---------------------------------------------------------------------------
// CSR construction
// ---------------------------------------------------------------------------

std::shared_ptr<const CsrGraph> CsrGraph::Build(const RelationTensor& rel,
                                                Norm norm,
                                                bool add_self_loops) {
  obs::Span span("graph.CsrBuild", "graph");
  auto g = std::shared_ptr<CsrGraph>(new CsrGraph());
  g->n_ = rel.num_stocks();
  g->num_types_ = rel.num_relation_types();
  g->self_loops_ = add_self_loops;
  const int64_t n = g->n_;

  const std::vector<RelationTensor::Edge>& edges = rel.EdgeList();
  g->num_undirected_edges_ = static_cast<int64_t>(edges.size());

  // Adjacency rows: (col, edge index or -1 for a self loop). EdgeList is
  // deterministic, so the whole build is.
  std::vector<std::vector<std::pair<int32_t, int64_t>>> adj(
      static_cast<size_t>(n));
  for (int64_t idx = 0; idx < static_cast<int64_t>(edges.size()); ++idx) {
    const auto& e = edges[idx];
    adj[static_cast<size_t>(e.i)].emplace_back(static_cast<int32_t>(e.j),
                                               idx);
    adj[static_cast<size_t>(e.j)].emplace_back(static_cast<int32_t>(e.i),
                                               idx);
  }
  if (add_self_loops) {
    for (int64_t i = 0; i < n; ++i) {
      adj[static_cast<size_t>(i)].emplace_back(static_cast<int32_t>(i), -1);
    }
  }
  int64_t nnz = 0;
  for (auto& row : adj) {
    // Neighbor columns are unique per row, so sorting by column alone is a
    // total order.
    std::sort(row.begin(), row.end());
    nnz += static_cast<int64_t>(row.size());
  }

  g->row_ptr_.resize(static_cast<size_t>(n) + 1, 0);
  g->col_.resize(static_cast<size_t>(nnz));
  g->row_of_.resize(static_cast<size_t>(nnz));
  g->coeff_.resize(static_cast<size_t>(nnz));
  g->rev_.resize(static_cast<size_t>(nnz));
  g->type_ptr_.resize(static_cast<size_t>(nnz) + 1, 0);

  int64_t cursor = 0;
  int64_t type_cursor = 0;
  for (int64_t i = 0; i < n; ++i) {
    g->row_ptr_[static_cast<size_t>(i)] = cursor;
    for (const auto& [c, edge_idx] : adj[static_cast<size_t>(i)]) {
      g->col_[static_cast<size_t>(cursor)] = c;
      g->row_of_[static_cast<size_t>(cursor)] = static_cast<int32_t>(i);
      g->type_ptr_[static_cast<size_t>(cursor)] = type_cursor;
      if (edge_idx >= 0) {
        // EdgeList types are sorted ascending; keep that order so the
        // float accumulation in s_e matches the dense path bit-for-bit.
        for (int32_t t : edges[static_cast<size_t>(edge_idx)].types) {
          g->types_.push_back(t);
          ++type_cursor;
        }
      }
      ++cursor;
    }
  }
  g->row_ptr_[static_cast<size_t>(n)] = cursor;
  g->type_ptr_[static_cast<size_t>(nnz)] = type_cursor;

  // Reverse-entry index: entry (i → j) maps to (j → i), found by binary
  // search inside row j (columns are sorted). Self loops map to themselves.
  const int64_t* rp = g->row_ptr_.data();
  const int32_t* col = g->col_.data();
  const int32_t* row_of = g->row_of_.data();
  ParallelFor(0, nnz, 1024, [&](int64_t lo, int64_t hi) {
    for (int64_t e = lo; e < hi; ++e) {
      const int32_t i = row_of[e];
      const int32_t j = col[e];
      const int32_t* begin = col + rp[j];
      const int32_t* end = col + rp[j + 1];
      const int32_t* it = std::lower_bound(begin, end, i);
      RTGCN_CHECK(it != end && *it == i);
      g->rev_[static_cast<size_t>(e)] =
          static_cast<int32_t>(rp[j] + (it - begin));
    }
  });

  // Coefficients. For the symmetric norm the degree is the full row length
  // (neighbors + the self loop) — identical to the dense D̃ from A + I.
  std::vector<float> scale(static_cast<size_t>(n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t deg = rp[i + 1] - rp[i];
    switch (norm) {
      case Norm::kSymmetric:
        scale[static_cast<size_t>(i)] =
            deg > 0 ? 1.0f / std::sqrt(static_cast<float>(deg)) : 0.0f;
        break;
      case Norm::kRowMean:
        scale[static_cast<size_t>(i)] =
            deg > 0 ? 1.0f / static_cast<float>(deg) : 0.0f;
        break;
      case Norm::kNone:
        scale[static_cast<size_t>(i)] = 1.0f;
        break;
    }
  }
  ParallelFor(0, nnz, 1024, [&](int64_t lo, int64_t hi) {
    for (int64_t e = lo; e < hi; ++e) {
      switch (norm) {
        case Norm::kSymmetric:
          g->coeff_[static_cast<size_t>(e)] =
              scale[static_cast<size_t>(row_of[e])] *
              scale[static_cast<size_t>(col[e])];
          break;
        case Norm::kRowMean:
          g->coeff_[static_cast<size_t>(e)] =
              scale[static_cast<size_t>(row_of[e])];
          break;
        case Norm::kNone:
          g->coeff_[static_cast<size_t>(e)] = 1.0f;
          break;
      }
    }
  });

  auto& reg = obs::Registry::Global();
  reg.GetCounter("graph.sparse.builds")->Increment();
  reg.GetGauge("graph.sparse.last_build_entries")
      ->Set(static_cast<double>(nnz));
  reg.GetGauge("graph.sparse.last_build_bytes")
      ->Set(static_cast<double>(g->ApproxBytes()));
  return g;
}

size_t CsrGraph::ApproxBytes() const {
  return row_ptr_.size() * sizeof(int64_t) + col_.size() * sizeof(int32_t) +
         row_of_.size() * sizeof(int32_t) + coeff_.size() * sizeof(float) +
         rev_.size() * sizeof(int32_t) + type_ptr_.size() * sizeof(int64_t) +
         types_.size() * sizeof(int32_t);
}

Tensor CsrGraph::DensifyCoeff() const { return Densify(coeff_.data()); }

Tensor CsrGraph::Densify(const float* entry_values) const {
  Tensor out = Tensor::Zeros({n_, n_});
  float* po = out.data();
  const int64_t n = n_;
  ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t e = row_ptr_[static_cast<size_t>(i)];
           e < row_ptr_[static_cast<size_t>(i) + 1]; ++e) {
        po[i * n + col_[static_cast<size_t>(e)]] = entry_values[e];
      }
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Shared kernels
// ---------------------------------------------------------------------------

namespace {

// y[i, :] += Σ_{e ∈ row i} vals[rev ? rev[e] : e] · x[col[e], :].
// Row segments are disjoint and accumulated serially in entry order, so the
// result is bit-identical at any thread count. `y` must be zeroed.
void SegmentSpmm(const CsrGraph& g, const float* vals, bool use_rev,
                 const float* x, int64_t f, float* y) {
  const int64_t* rp = g.row_ptr().data();
  const int32_t* col = g.col().data();
  const int32_t* rev = g.reverse_entry().data();
  ParallelFor(0, g.num_nodes(), 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* yi = y + i * f;
      for (int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        const float v = vals[use_rev ? rev[e] : e];
        const float* xj = x + static_cast<int64_t>(col[e]) * f;
        for (int64_t c = 0; c < f; ++c) yi[c] += v * xj[c];
      }
    }
  });
}

// Per-entry edge weight s_e = Σ_{t ∈ types(e)} w_t + b; self loops get 1
// (a node always keeps its own features, matching the dense S_ii = 1).
// When `as` is non-null it also receives as_e = coeff_e · s_e.
std::shared_ptr<std::vector<float>> EdgeWeights(const CsrGraph& g,
                                                const float* w, float bias,
                                                float* as = nullptr) {
  auto s = std::make_shared<std::vector<float>>(
      static_cast<size_t>(g.num_entries()));
  const int64_t* tp = g.type_ptr().data();
  const int32_t* types = g.types().data();
  const float* coeff = g.coeff().data();
  float* ps = s->data();
  ParallelFor(0, g.num_entries(), 1024, [&](int64_t lo, int64_t hi) {
    for (int64_t e = lo; e < hi; ++e) {
      float weight = 1.0f;
      if (!g.IsSelf(e)) {
        weight = bias;
        for (int64_t t = tp[e]; t < tp[e + 1]; ++t) weight += w[types[t]];
      }
      ps[e] = weight;
      if (as != nullptr) as[e] = coeff[e] * weight;
    }
  });
  return s;
}

float DotF(const float* a, const float* b, int64_t f) {
  float acc = 0.0f;
  for (int64_t c = 0; c < f; ++c) acc += a[c] * b[c];
  return acc;
}

void PublishOp(const char* counter) {
  obs::Registry::Global().GetCounter(counter)->Increment();
}

}  // namespace

// ---------------------------------------------------------------------------
// SparsePropagate — Â x (Uniform strategy)
// ---------------------------------------------------------------------------

ag::VarPtr SparsePropagate(const CsrPtr& g, const ag::VarPtr& x) {
  obs::Span span("graph.SpMM[sparse]", "graph");
  PublishOp("graph.sparse.op.propagate");
  RTGCN_CHECK_EQ(x->value.ndim(), 2);
  RTGCN_CHECK_EQ(x->value.dim(0), g->num_nodes());
  const int64_t f = x->value.dim(1);

  Tensor y = Tensor::Zeros(x->value.shape());
  SegmentSpmm(*g, g->coeff().data(), /*use_rev=*/false, x->value.data(), f,
              y.data());

  auto out = std::make_shared<ag::Variable>(std::move(y));
  out->op_name = "graph.SparsePropagate";
  if (ag::GradMode::enabled() && ag::NeedsGrad(x)) {
    out->parents = {x};
    out->backward_fn = [g, x, f](const Tensor& grad) {
      obs::Span bspan("graph.SpMM.bwd[sparse]", "graph");
      // dX = Âᵀ G — same segment loop through the reverse-entry index.
      Tensor dx = Tensor::Zeros(x->value.shape());
      SegmentSpmm(*g, g->coeff().data(), /*use_rev=*/true, grad.data(), f,
                  dx.data());
      x->AccumulateGrad(std::move(dx));
    };
  }
  return out;
}

// ---------------------------------------------------------------------------
// SparseEdgeWeightPropagate — P = Â ⊙ S(w, b), y = P x (Weight strategy)
// ---------------------------------------------------------------------------

ag::VarPtr SparseEdgeWeightPropagate(const CsrPtr& g, const ag::VarPtr& w,
                                     const ag::VarPtr& b, const ag::VarPtr& x,
                                     Tensor* save_edge_values) {
  obs::Span span("graph.EdgeWeight[sparse]", "graph");
  PublishOp("graph.sparse.op.edge_weight");
  RTGCN_CHECK_EQ(w->value.ndim(), 1);
  RTGCN_CHECK_EQ(w->value.dim(0), g->num_relation_types());
  RTGCN_CHECK_EQ(b->value.numel(), 1);
  RTGCN_CHECK_EQ(x->value.ndim(), 2);
  RTGCN_CHECK_EQ(x->value.dim(0), g->num_nodes());
  const int64_t f = x->value.dim(1);
  const int64_t nnz = g->num_entries();

  auto s = EdgeWeights(*g, w->value.data(), b->value.data()[0]);
  // The backward closure and the saved diagnostic share p's storage.
  Tensor p({nnz});
  const float* coeff = g->coeff().data();
  for (int64_t e = 0; e < nnz; ++e) {
    p.data()[e] = coeff[e] * (*s)[static_cast<size_t>(e)];
  }
  if (save_edge_values != nullptr) *save_edge_values = p;

  Tensor y = Tensor::Zeros(x->value.shape());
  SegmentSpmm(*g, p.data(), /*use_rev=*/false, x->value.data(), f, y.data());

  auto out = std::make_shared<ag::Variable>(std::move(y));
  out->op_name = "graph.SparseEdgeWeightPropagate";
  const bool any_grad =
      ag::NeedsGrad(w) || ag::NeedsGrad(b) || ag::NeedsGrad(x);
  if (ag::GradMode::enabled() && any_grad) {
    out->parents = {w, b, x};
    Tensor x_val = x->value;  // shared storage — cheap to capture
    out->backward_fn = [g, w, b, x, x_val, p, f](const Tensor& grad) {
      obs::Span bspan("graph.EdgeWeight.bwd[sparse]", "graph");
      const float* pg = grad.data();
      const float* px = x_val.data();
      const int64_t* rp = g->row_ptr().data();
      const int32_t* col = g->col().data();
      const float* coeff = g->coeff().data();
      const int64_t* tp = g->type_ptr().data();
      const int32_t* types = g->types().data();
      const int64_t k = w->value.numel();

      if (ag::NeedsGrad(w) || ag::NeedsGrad(b)) {
        // ∂L/∂s_e = coeff_e · (g_i · x_j) for every directed non-self
        // entry; dw folds per-row partial vectors in fixed chunk order
        // (slot k holds db).
        std::vector<float> acc = ParallelReduce(
            0, g->num_nodes(), 64, std::vector<float>(k + 1, 0.0f),
            [&](int64_t lo, int64_t hi) {
              std::vector<float> partial(k + 1, 0.0f);
              for (int64_t i = lo; i < hi; ++i) {
                const float* gi = pg + i * f;
                for (int64_t e = rp[i]; e < rp[i + 1]; ++e) {
                  if (col[e] == i) continue;  // self loop: s fixed at 1
                  const float ds =
                      coeff[e] *
                      DotF(gi, px + static_cast<int64_t>(col[e]) * f, f);
                  for (int64_t t = tp[e]; t < tp[e + 1]; ++t) {
                    partial[static_cast<size_t>(types[t])] += ds;
                  }
                  partial[static_cast<size_t>(k)] += ds;
                }
              }
              return partial;
            },
            [k](std::vector<float> a, std::vector<float> part) {
              for (int64_t t = 0; t <= k; ++t) a[t] += part[t];
              return a;
            });
        if (ag::NeedsGrad(w)) {
          w->AccumulateGrad(Tensor(
              w->value.shape(),
              std::vector<float>(acc.begin(), acc.begin() + k)));
        }
        if (ag::NeedsGrad(b)) {
          b->AccumulateGrad(Tensor(
              b->value.shape(),
              std::vector<float>(b->value.numel(), acc[k])));
        }
      }
      if (ag::NeedsGrad(x)) {
        Tensor dx = Tensor::Zeros(x_val.shape());
        SegmentSpmm(*g, p.data(), /*use_rev=*/true, pg, f, dx.data());
        x->AccumulateGrad(std::move(dx));
      }
    };
  }
  return out;
}

// ---------------------------------------------------------------------------
// SparseTimeSensitivePropagate — P_t = Â ⊙ S ⊙ (X_t X_tᵀ / √D), y_t = P_t x_t
// ---------------------------------------------------------------------------
//
// Node-major, time-blocked layout: x (and, in the backward, g) is transposed
// once into [N, D, t_stride], T zero-padded to a multiple of
// kernels::kTimeLanes. All T steps of one (node, feature) are then
// contiguous lanes, so each CSR entry is a D-step lane-wise multiply-add
// over fixed-width blocks instead of T latency-bound D-wide dots. The lane
// loops are the active KernelSet's ts_* kernels; every backend runs exactly
// the scalar [T, N, D] operation sequence in each lane (D-sum from 0 in k
// order, then c·acc, then as·corr, entries accumulated in CSR order), so
// results are bit-identical to it; the pad lanes only ever see zeros and
// are never read back.

namespace {

int64_t PadTimeLanes(int64_t t_steps) {
  return (t_steps + kernels::kTimeLanes - 1) / kernels::kTimeLanes *
         kernels::kTimeLanes;
}

// [T, N, D] -> node-major [N, D, t_stride], pad lanes zeroed.
std::shared_ptr<float[]> ToNodeMajor(const float* src, int64_t t_steps,
                                     int64_t n, int64_t d, int64_t t_stride) {
  auto out = std::make_shared_for_overwrite<float[]>(
      static_cast<size_t>(n * d * t_stride));
  float* po = out.get();
  ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t k = 0; k < d; ++k) {
        float* lanes = po + (i * d + k) * t_stride;
        for (int64_t t = 0; t < t_steps; ++t) {
          lanes[t] = src[(t * n + i) * d + k];
        }
        std::fill(lanes + t_steps, lanes + t_stride, 0.0f);
      }
    }
  });
  return out;
}

// Writes node-major rows [lo, hi) of `lanes` back into a [T, N, D] tensor.
void FromNodeMajorRows(const float* lanes, int64_t lo, int64_t hi,
                       int64_t t_steps, int64_t n, int64_t d, int64_t t_stride,
                       float* dst) {
  for (int64_t i = lo; i < hi; ++i) {
    const float* li = lanes + i * d * t_stride;
    for (int64_t t = 0; t < t_steps; ++t) {
      float* row = dst + (t * n + i) * d;
      for (int64_t k = 0; k < d; ++k) row[k] = li[k * t_stride + t];
    }
  }
}

kernels::TimeLaneGraph LaneGraph(const CsrGraph& g, int64_t d, int64_t t_steps,
                                 int64_t t_stride) {
  return kernels::TimeLaneGraph{g.row_ptr().data(),
                                g.col().data(),
                                g.reverse_entry().data(),
                                g.coeff().data(),
                                d,
                                t_steps,
                                t_stride};
}

}  // namespace

std::vector<float> TimeSensitiveEdgeValues::TimeAverage() const {
  const int64_t nnz = static_cast<int64_t>(as->size());
  std::vector<float> avg(static_cast<size_t>(nnz), 0.0f);
  const float inv = 1.0f / static_cast<float>(t_steps);
  for (int64_t e = 0; e < nnz; ++e) {
    float sum = 0.0f;
    for (int64_t t = 0; t < t_steps; ++t) sum += At(t, e);
    avg[static_cast<size_t>(e)] = sum * inv;
  }
  return avg;
}

ag::VarPtr SparseTimeSensitivePropagate(
    const CsrPtr& g, const ag::VarPtr& w, const ag::VarPtr& b,
    const ag::VarPtr& x, TimeSensitiveEdgeValues* save_edge_values) {
  obs::Span span("graph.TimeSensitive[sparse]", "graph");
  PublishOp("graph.sparse.op.time_sensitive");
  RTGCN_CHECK_EQ(w->value.ndim(), 1);
  RTGCN_CHECK_EQ(w->value.dim(0), g->num_relation_types());
  RTGCN_CHECK_EQ(b->value.numel(), 1);
  RTGCN_CHECK_EQ(x->value.ndim(), 3);
  RTGCN_CHECK_EQ(x->value.dim(1), g->num_nodes());
  const int64_t t_steps = x->value.dim(0);
  const int64_t n = x->value.dim(1);
  const int64_t d = x->value.dim(2);
  const int64_t nnz = g->num_entries();
  const int64_t t_stride = PadTimeLanes(t_steps);
  const float c = 1.0f / std::sqrt(static_cast<float>(d));

  // as_e = coeff_e · s_e (time-independent part of P).
  auto as = std::make_shared<std::vector<float>>(static_cast<size_t>(nnz));
  auto s = EdgeWeights(*g, w->value.data(), b->value.data()[0], as->data());
  std::shared_ptr<const float[]> xn =
      ToNodeMajor(x->value.data(), t_steps, n, d, t_stride);

  // corr[e, t] = (x_{t,i} · x_{t,j}) / √D, edge-major; every slot is
  // written, pad lanes included. p = as · corr is never materialized.
  auto corr = std::make_shared_for_overwrite<float[]>(
      static_cast<size_t>(nnz * t_stride));
  Tensor y = Tensor::Uninitialized(x->value.shape());  // every row written
  {
    const kernels::KernelSet& ks = kernels::Active();
    const kernels::TimeLaneGraph lg = LaneGraph(*g, d, t_steps, t_stride);
    auto yn = std::make_unique_for_overwrite<float[]>(
        static_cast<size_t>(n * d * t_stride));
    ParallelFor(0, n, 16, [&](int64_t lo, int64_t hi) {
      ks.ts_forward_rows(lg, xn.get(), as->data(), c, lo, hi, corr.get(),
                         yn.get());
      FromNodeMajorRows(yn.get(), lo, hi, t_steps, n, d, t_stride, y.data());
    });
  }
  if (save_edge_values != nullptr) {
    *save_edge_values = TimeSensitiveEdgeValues{corr, as, t_steps, t_stride};
  }

  auto out = std::make_shared<ag::Variable>(std::move(y));
  out->op_name = "graph.SparseTimeSensitivePropagate";
  const bool any_grad =
      ag::NeedsGrad(w) || ag::NeedsGrad(b) || ag::NeedsGrad(x);
  if (ag::GradMode::enabled() && any_grad) {
    out->parents = {w, b, x};
    out->backward_fn = [g, w, b, x, xn, s, as, corr, t_steps, n, d, t_stride,
                        c, nnz](const Tensor& grad) {
      obs::Span bspan("graph.TimeSensitive.bwd[sparse]", "graph");
      const bool need_wb = ag::NeedsGrad(w) || ag::NeedsGrad(b);
      const bool need_x = ag::NeedsGrad(x);
      const kernels::KernelSet& ks = kernels::Active();
      const kernels::TimeLaneGraph lg = LaneGraph(*g, d, t_steps, t_stride);
      std::shared_ptr<const float[]> gn =
          ToNodeMajor(grad.data(), t_steps, n, d, t_stride);
      const int64_t* rp = g->row_ptr().data();
      const int32_t* col = g->col().data();
      const int64_t* tp = g->type_ptr().data();
      const int32_t* types = g->types().data();
      const int64_t k = w->value.numel();

      // One row-owned pass: gx[e, t] = g_{t,i} · x_{t,j} once per entry and,
      // for the w/b reduction, ∂L/∂s_e = coeff_e · Σ_t corr[e,t] · gx[e,t].
      // gx is kept for the dx pass only when x needs a gradient.
      std::unique_ptr<float[]> gx;
      if (need_x) {
        gx = std::make_unique_for_overwrite<float[]>(
            static_cast<size_t>(nnz * t_stride));
      }
      std::unique_ptr<float[]> ds;
      if (need_wb) {
        ds = std::make_unique_for_overwrite<float[]>(static_cast<size_t>(nnz));
      }
      const size_t slots = need_wb ? static_cast<size_t>(k + 1) : 0;
      std::vector<float> acc = ParallelReduce(
          0, n, 64, std::vector<float>(slots, 0.0f),
          [&](int64_t lo, int64_t hi) {
            ks.ts_grad_entries_rows(lg, gn.get(), xn.get(), corr.get(), lo,
                                    hi, gx.get(), ds.get());
            std::vector<float> partial(slots, 0.0f);
            if (!need_wb) return partial;
            for (int64_t i = lo; i < hi; ++i) {
              for (int64_t e = rp[i]; e < rp[i + 1]; ++e) {
                if (col[e] == i) continue;  // self loop: s = 1
                for (int64_t t = tp[e]; t < tp[e + 1]; ++t) {
                  partial[static_cast<size_t>(types[t])] += ds[e];
                }
                partial[static_cast<size_t>(k)] += ds[e];
              }
            }
            return partial;
          },
          [](std::vector<float> a, std::vector<float> part) {
            for (size_t t = 0; t < part.size(); ++t) a[t] += part[t];
            return a;
          });
      if (ag::NeedsGrad(w)) {
        w->AccumulateGrad(
            Tensor(w->value.shape(),
                   std::vector<float>(acc.begin(), acc.begin() + k)));
      }
      if (ag::NeedsGrad(b)) {
        b->AccumulateGrad(Tensor(
            b->value.shape(), std::vector<float>(b->value.numel(), acc[k])));
      }

      if (need_x) {
        // Three contributions per row m (all via row-m entries, so every
        // row is written by exactly one chunk), axpys only:
        //  (1) transpose propagation  p[rev e] g_j, p = as[rev] · corr[rev]
        //  (2) correlation, i-side    as_e c gx[e] x_j
        //  (3) correlation, j-side    coeff[rev e] s_e c gx[rev e] x_j
        Tensor dx = Tensor::Uninitialized(x->value.shape());
        auto dxn = std::make_unique_for_overwrite<float[]>(
            static_cast<size_t>(n * d * t_stride));
        ParallelFor(0, n, 16, [&](int64_t lo, int64_t hi) {
          ks.ts_grad_x_rows(lg, gn.get(), xn.get(), corr.get(), gx.get(),
                            as->data(), s->data(), c, lo, hi, dxn.get());
          FromNodeMajorRows(dxn.get(), lo, hi, t_steps, n, d, t_stride,
                            dx.data());
        });
        x->AccumulateGrad(std::move(dx));
      }
    };
  }
  return out;
}

// ---------------------------------------------------------------------------
// SparseGatAttention — per-row softmax attention over graph entries
// ---------------------------------------------------------------------------

ag::VarPtr SparseGatAttention(const CsrPtr& g, const ag::VarPtr& src,
                              const ag::VarPtr& dst, const ag::VarPtr& h,
                              float leaky_slope, Tensor* save_alpha) {
  obs::Span span("graph.GatAttention[sparse]", "graph");
  PublishOp("graph.sparse.op.gat_attention");
  const int64_t n = g->num_nodes();
  RTGCN_CHECK_EQ(src->value.numel(), n);
  RTGCN_CHECK_EQ(dst->value.numel(), n);
  RTGCN_CHECK_EQ(h->value.ndim(), 2);
  RTGCN_CHECK_EQ(h->value.dim(0), n);
  const int64_t f = h->value.dim(1);
  const int64_t nnz = g->num_entries();

  auto alpha = std::make_shared<std::vector<float>>(
      static_cast<size_t>(nnz), 0.0f);
  Tensor y = Tensor::Zeros(h->value.shape());
  {
    const float* ps = src->value.data();
    const float* pd = dst->value.data();
    const float* ph = h->value.data();
    const int64_t* rp = g->row_ptr().data();
    const int32_t* col = g->col().data();
    float* pa = alpha->data();
    float* py = y.data();
    ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const int64_t begin = rp[i];
        const int64_t end = rp[i + 1];
        if (begin == end) continue;  // isolated row → zeros
        float max_z = -std::numeric_limits<float>::infinity();
        for (int64_t e = begin; e < end; ++e) {
          const float u = ps[i] + pd[col[e]];
          const float z = u > 0.0f ? u : leaky_slope * u;
          pa[e] = z;
          max_z = std::max(max_z, z);
        }
        float denom = 0.0f;
        for (int64_t e = begin; e < end; ++e) {
          pa[e] = std::exp(pa[e] - max_z);
          denom += pa[e];
        }
        const float inv = 1.0f / denom;
        float* yi = py + i * f;
        for (int64_t e = begin; e < end; ++e) {
          pa[e] *= inv;
          const float* hj = ph + static_cast<int64_t>(col[e]) * f;
          for (int64_t c = 0; c < f; ++c) yi[c] += pa[e] * hj[c];
        }
      }
    });
  }
  if (save_alpha != nullptr) {
    *save_alpha = Tensor({nnz}, std::vector<float>(*alpha));
  }

  auto out = std::make_shared<ag::Variable>(std::move(y));
  out->op_name = "graph.SparseGatAttention";
  const bool any_grad =
      ag::NeedsGrad(src) || ag::NeedsGrad(dst) || ag::NeedsGrad(h);
  if (ag::GradMode::enabled() && any_grad) {
    out->parents = {src, dst, h};
    Tensor src_val = src->value;
    Tensor dst_val = dst->value;
    Tensor h_val = h->value;
    out->backward_fn = [g, src, dst, h, src_val, dst_val, h_val, alpha,
                        leaky_slope, f](const Tensor& grad) {
      obs::Span bspan("graph.GatAttention.bwd[sparse]", "graph");
      const int64_t n = g->num_nodes();
      const int64_t nnz = g->num_entries();
      const float* pg = grad.data();
      const float* ps = src_val.data();
      const float* pd = dst_val.data();
      const float* ph = h_val.data();
      const float* pa = alpha->data();
      const int64_t* rp = g->row_ptr().data();
      const int32_t* col = g->col().data();
      const int32_t* rev = g->reverse_entry().data();

      // Pass 1 (rows i): softmax backward inside the row, du through the
      // LeakyReLU, row-local dsrc.
      std::vector<float> du(static_cast<size_t>(nnz), 0.0f);
      Tensor dsrc = Tensor::Zeros(src_val.shape());
      float* pdsrc = dsrc.data();
      ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t begin = rp[i];
          const int64_t end = rp[i + 1];
          if (begin == end) continue;
          const float* gi = pg + i * f;
          float dot_sum = 0.0f;
          for (int64_t e = begin; e < end; ++e) {
            const float da =
                DotF(gi, ph + static_cast<int64_t>(col[e]) * f, f);
            du[static_cast<size_t>(e)] = da;  // stash dα
            dot_sum += pa[e] * da;
          }
          float dsrc_i = 0.0f;
          for (int64_t e = begin; e < end; ++e) {
            const float dz =
                pa[e] * (du[static_cast<size_t>(e)] - dot_sum);
            const float u = ps[i] + pd[col[e]];
            const float duv = u > 0.0f ? dz : leaky_slope * dz;
            du[static_cast<size_t>(e)] = duv;
            dsrc_i += duv;
          }
          pdsrc[i] = dsrc_i;
        }
      });

      // Pass 2 (rows j): transpose accumulations via the reverse index.
      Tensor ddst = Tensor::Zeros(dst_val.shape());
      Tensor dh = Tensor::Zeros(h_val.shape());
      float* pddst = ddst.data();
      float* pdh = dh.data();
      ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
        for (int64_t j = lo; j < hi; ++j) {
          float ddst_j = 0.0f;
          float* dhj = pdh + j * f;
          for (int64_t e = rp[j]; e < rp[j + 1]; ++e) {
            const int32_t r = rev[e];
            ddst_j += du[static_cast<size_t>(r)];
            const float a = pa[r];
            const float* gi = pg + static_cast<int64_t>(col[e]) * f;
            for (int64_t c = 0; c < f; ++c) dhj[c] += a * gi[c];
          }
          pddst[j] = ddst_j;
        }
      });

      if (ag::NeedsGrad(src)) src->AccumulateGrad(std::move(dsrc));
      if (ag::NeedsGrad(dst)) dst->AccumulateGrad(std::move(ddst));
      if (ag::NeedsGrad(h)) h->AccumulateGrad(std::move(dh));
    };
  }
  return out;
}

}  // namespace rtgcn::graph
