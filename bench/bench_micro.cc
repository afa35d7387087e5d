// Google-benchmark micro-benchmarks for the numeric substrate and the model
// layers: op throughput, layer forward/backward, the per-sample cost that
// underlies Figure 5's speed comparison, and the universe-size scaling of
// the sparse relation graph that BENCH_scale.json records.
//
// The kernel backend comes from RTGCN_KERNEL and span tracing from
// RTGCN_TRACE=<file> (exported at exit), as in every other binary. A JSON
// report with a host block is Google Benchmark's own writer:
//   bench_micro --benchmark_filter='BM_(CsrBuild|ScaleTrainStep)'
//     --benchmark_out=BENCH_scale.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "baselines/lstm_models.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "core/rtgcn.h"
#include "graph/sparse.h"
#include "market/market.h"
#include "nn/rnn.h"
#include "nn/temporal_conv.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  SetNumThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Tensor a = RandomGaussian({n, n}, 0, 1, &rng);
  Tensor b = RandomGaussian({n, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  SetNumThreads(0);
}
BENCHMARK(BM_MatMul)
    ->ArgNames({"n", "threads"})
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4});

// Forces the kernel backend named by a benchmark arg (0 reference, 1 avx2)
// and 1 thread for one run, restoring both on exit: the direct
// reference-vs-avx2 comparison of one kernel.
class BackendRun {
 public:
  BackendRun(benchmark::State& state, int64_t backend_arg)
      : prev_(kernels::ActiveBackend()) {
    const auto backend = static_cast<kernels::Backend>(backend_arg);
    ok_ = backend != kernels::Backend::kAvx2 || kernels::CpuSupportsAvx2();
    if (!ok_) {
      state.SkipWithError("AVX2+FMA not supported on this CPU/build");
      return;
    }
    kernels::SetBackend(backend);
    SetNumThreads(1);
  }
  ~BackendRun() {
    SetNumThreads(0);
    kernels::SetBackend(prev_);
  }
  BackendRun(const BackendRun&) = delete;
  BackendRun& operator=(const BackendRun&) = delete;

  bool ok() const { return ok_; }

 private:
  kernels::Backend prev_;
  bool ok_ = false;
};

// [m, k] x [k, n] at 1 thread under each backend: square sizes, and the
// train step's narrow products at N = 840 — the θ-lift backward g·θᵀ
// ([T·N, F] x [F, D], all of it in the n % 8 tail) and the temporal
// block's [3360, 16] x [16, 48].
void BM_MatMulKernel(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  BackendRun run(state, state.range(3));
  if (!run.ok()) return;
  Rng rng(1);
  Tensor a = RandomGaussian({m, k}, 0, 1, &rng);
  Tensor b = RandomGaussian({k, n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
  state.SetLabel(kernels::Active().name);
}
BENCHMARK(BM_MatMulKernel)
    ->ArgNames({"m", "k", "n", "backend"})
    ->ArgsProduct({{128}, {128}, {128}, {0, 1}})
    ->ArgsProduct({{256}, {256}, {256}, {0, 1}})
    ->ArgsProduct({{512}, {512}, {512}, {0, 1}})
    ->ArgsProduct({{12600}, {16}, {4}, {0, 1}})
    ->ArgsProduct({{3360}, {16}, {48}, {0, 1}});

void BM_BroadcastAdd(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = RandomGaussian({n, n}, 0, 1, &rng);
  Tensor b = RandomGaussian({n}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BroadcastAdd)->Arg(256);

void BM_Softmax(benchmark::State& state) {
  Rng rng(1);
  Tensor a = RandomGaussian({128, 128}, 0, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(a, 1));
  }
}
BENCHMARK(BM_Softmax);

// The fused pairwise ranking loss, forward and backward, at the default
// (N = 120) and the paper-scale (N = 840) universe, 1 thread, per backend.
void BM_PairwiseRankingLoss(benchmark::State& state) {
  const int64_t n = state.range(0);
  BackendRun run(state, state.range(1));
  if (!run.ok()) return;
  Rng rng(1);
  auto scores = ag::MakeVariable(RandomGaussian({n}, 0, 1, &rng),
                                 /*requires_grad=*/true);
  const Tensor labels = RandomGaussian({n}, 0, 0.02f, &rng);
  for (auto _ : state) {
    scores->ZeroGrad();
    ag::Backward(core::PairwiseRankingLoss(scores, labels));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  state.SetLabel(kernels::Active().name);
}
BENCHMARK(BM_PairwiseRankingLoss)
    ->ArgNames({"n", "backend"})
    ->ArgsProduct({{120, 840}, {0, 1}});

// The temporal conv block, forward and backward, on the layer-0 shapes of
// the paper-scale model in training mode: [T = 15, N = 840, F = 16],
// kernel 3, stride 4, dropout 0.1, at 1, 2 and 4 threads.
void BM_TemporalBlockFwdBwd(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(1);
  nn::TemporalConvBlock block(16, 16, 3, &rng, /*dilation=*/1, /*stride=*/4,
                              /*dropout=*/0.1f);
  auto x = ag::MakeVariable(RandomGaussian({15, 840, 16}, 0, 1, &rng),
                            /*requires_grad=*/true);
  for (auto _ : state) {
    x->ZeroGrad();
    for (const auto& p : block.Parameters()) p->ZeroGrad();
    ag::Backward(ag::SumAll(block.Forward(x, &rng)));
    benchmark::DoNotOptimize(x->grad.data());
    benchmark::ClobberMemory();
  }
  SetNumThreads(0);
}
BENCHMARK(BM_TemporalBlockFwdBwd)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime();

// ag::Relu's backward alone, g · (x > 0 ? 1 : 0), on a [T = 15, N = 840,
// F = 16] input whose signs are random, as the pre-activations of the
// train step are: a branch on the sign would mispredict half the time.
void BM_ReluBackward(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  Rng rng(1);
  auto x = ag::MakeVariable(RandomGaussian({15, 840, 16}, 0, 1, &rng),
                            /*requires_grad=*/true);
  const ag::VarPtr y = ag::Relu(x);
  const Tensor g = RandomGaussian({15, 840, 16}, 0, 1, &rng);
  for (auto _ : state) {
    x->ZeroGrad();
    y->backward_fn(g);
    benchmark::DoNotOptimize(x->grad.data());
  }
  state.SetItemsProcessed(state.iterations() * g.numel());
  SetNumThreads(0);
}
BENCHMARK(BM_ReluBackward)->ArgName("threads")->Arg(1)->Arg(2)
    ->UseRealTime();

// One RT-GCN forward+backward per day-sample vs an LSTM ranker — the
// per-sample contrast behind Figure 5.
struct ModelFixture {
  ModelFixture() : data(market::BuildMarket(SmallSpec())) {
    dataset = std::make_unique<market::WindowDataset>(data.sim.prices, 15, 4);
    features = dataset->Features(dataset->first_day());
    labels = dataset->Labels(dataset->first_day());
  }

  static market::MarketSpec SmallSpec() {
    market::MarketSpec spec = market::NasdaqSpec();
    spec.train_days = 60;
    spec.test_days = 10;
    return spec;
  }

  market::MarketData data;
  std::unique_ptr<market::WindowDataset> dataset;
  Tensor features;
  Tensor labels;
};

ModelFixture& Fixture() {
  static ModelFixture fixture;
  return fixture;
}

void BM_RtGcnForward(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(2);
  core::RtGcnConfig cfg;
  cfg.strategy = static_cast<core::Strategy>(state.range(0));
  cfg.relational_filters = 32;
  core::RtGcnModel model(f.data.relations.relations, cfg, &rng);
  model.SetTraining(false);
  ag::NoGradGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forward(ag::Constant(f.features), &rng));
  }
}
BENCHMARK(BM_RtGcnForward)->Arg(0)->Arg(1)->Arg(2)
    ->ArgNames({"strategy"});

void BM_RtGcnTrainStep(benchmark::State& state) {
  SetNumThreads(static_cast<int>(state.range(0)));
  auto& f = Fixture();
  Rng rng(2);
  core::RtGcnConfig cfg;
  cfg.strategy = core::Strategy::kTimeSensitive;
  cfg.relational_filters = 32;
  core::RtGcnModel model(f.data.relations.relations, cfg, &rng);
  ag::Adam opt(model.Parameters(), 1e-3f);
  for (auto _ : state) {
    opt.ZeroGrad();
    auto scores = model.Forward(ag::Constant(f.features), &rng);
    auto loss = core::CombinedLoss(scores, f.labels, 0.1f);
    ag::Backward(loss);
    opt.Step();
  }
  SetNumThreads(0);
}
BENCHMARK(BM_RtGcnTrainStep)->ArgNames({"threads"})->Arg(1)->Arg(2)->Arg(4);

// Eq. 5 relational conv alone on the layer-0 shapes of the paper-scale
// model: x [T = 15, N = 840, D = 4] over the NASDAQ-shaped CSR. mode 0 is
// the forward only; mode 1 adds the backward with dw/db only (x is the
// constant model input, as in the train step); mode 2 also takes dx (x
// requires a gradient, as in perfbench's isolated relational_bwd row).
// Modes 3 and 4 are the layer the train step runs, h = ReLU(P(t) x(t) Θ)
// with Θ [4, 16]: the fused graph::SparseTimeSensitiveConv, forward and
// forward+backward (dw, db, dΘ; x constant); modes 5 and 6 the same as the
// composed propagate -> MatMul -> Relu chain it replaced. Each mode runs at
// 1 thread under each backend.
struct PaperScaleFixture {
  PaperScaleFixture() : data(market::BuildMarket(Spec())) {
    csr = graph::CsrGraph::NormalizedAdjacency(data.relations.relations);
    market::WindowDataset dataset(data.sim.prices, 15, 4);
    features = dataset.Features(dataset.first_day());
  }

  static market::MarketSpec Spec() {
    market::MarketSpec spec = market::NasdaqSpec(7.0);  // N = 840
    spec.train_days = 40;
    spec.test_days = 5;
    return spec;
  }

  market::MarketData data;
  graph::CsrPtr csr;
  Tensor features;
};

void BM_TimeSensitivePropagate(benchmark::State& state) {
  static const PaperScaleFixture paper;
  const int64_t mode = state.range(0);
  BackendRun run(state, state.range(1));
  if (!run.ok()) return;
  Rng rng(5);
  auto w = ag::MakeVariable(
      RandomGaussian({paper.csr->num_relation_types()}, 1.0f, 0.1f, &rng),
      /*requires_grad=*/true);
  auto b = ag::MakeVariable(Tensor::Zeros({1}), /*requires_grad=*/true);
  auto theta = ag::MakeVariable(RandomGaussian({4, 16}, 0.0f, 0.5f, &rng),
                                /*requires_grad=*/true);
  auto x = ag::MakeVariable(paper.features, /*requires_grad=*/mode == 2);
  const int64_t rows = paper.features.dim(0) * paper.features.dim(1);
  const Shape h_shape{paper.features.dim(0), paper.features.dim(1), 16};
  const bool backward = mode == 1 || mode == 2 || mode == 4 || mode == 6;
  for (auto _ : state) {
    w->ZeroGrad();
    b->ZeroGrad();
    theta->ZeroGrad();
    x->ZeroGrad();
    ag::VarPtr y;
    if (mode <= 2) {
      y = graph::SparseTimeSensitivePropagate(paper.csr, w, b, x);
    } else if (mode <= 4) {
      y = graph::SparseTimeSensitiveConv(paper.csr, w, b, theta, x);
    } else {
      ag::VarPtr flat = ag::Reshape(
          graph::SparseTimeSensitivePropagate(paper.csr, w, b, x), {rows, 4});
      y = ag::Relu(ag::Reshape(ag::MatMul(flat, theta), h_shape));
    }
    if (backward) ag::Backward(y);
  }
  static const char* const kLabels[] = {
      "fwd",       "fwd+bwd dw/db",       "fwd+bwd dx",
      "fused fwd", "fused fwd+bwd",       "composed fwd",
      "composed fwd+bwd"};
  state.SetLabel(std::string(kLabels[mode]) + " " + kernels::Active().name);
}
BENCHMARK(BM_TimeSensitivePropagate)
    ->ArgNames({"mode", "backend"})
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6}, {0, 1}});

// One ParallelFor of 2 × threads chunks of ~64 floats each: the cost of a
// pool region itself (dispatch, worker wake-up, join), at 1, 2 and 4
// threads. At 1 thread the body runs inline.
void BM_ParallelForDispatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetNumThreads(threads);
  const int64_t chunks = 2 * threads;
  constexpr int64_t kChunkFloats = 64;
  std::vector<float> data(static_cast<size_t>(chunks * kChunkFloats), 1.0f);
  std::vector<float> sums(static_cast<size_t>(chunks), 0.0f);
  for (auto _ : state) {
    ParallelFor(0, chunks, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t c = lo; c < hi; ++c) {
        float sum = 0.0f;
        for (int64_t i = 0; i < kChunkFloats; ++i) {
          sum += data[static_cast<size_t>(c * kChunkFloats + i)];
        }
        sums[static_cast<size_t>(c)] = sum;
      }
    });
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  SetNumThreads(0);
}
BENCHMARK(BM_ParallelForDispatch)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime();

void BM_LstmRankerTrainStep(benchmark::State& state) {
  auto& f = Fixture();
  Rng rng(3);
  struct Net : nn::Module {
    Net(Rng* rng) : lstm(4, 32, rng), scorer(32, 1, rng) {
      RegisterModule(&lstm);
      RegisterModule(&scorer);
    }
    nn::Lstm lstm;
    nn::Linear scorer;
  } net(&rng);
  ag::Adam opt(net.Parameters(), 1e-3f);
  const int64_t n = f.features.dim(1);
  for (auto _ : state) {
    opt.ZeroGrad();
    auto h = net.lstm.ForwardLast(ag::Constant(f.features));
    auto scores = ag::Reshape(net.scorer.Forward(h), {n});
    auto loss = core::CombinedLoss(scores, f.labels, 0.1f);
    ag::Backward(loss);
    opt.Step();
  }
}
BENCHMARK(BM_LstmRankerTrainStep);

void BM_MarketSimulation(benchmark::State& state) {
  market::MarketSpec spec = market::NasdaqSpec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(market::BuildMarket(spec));
  }
}
BENCHMARK(BM_MarketSimulation);

void BM_FeatureWindow(benchmark::State& state) {
  auto& f = Fixture();
  const int64_t day = f.dataset->first_day();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.dataset->Features(day));
  }
}
BENCHMARK(BM_FeatureWindow);

// Universe-size scaling of the sparse relation graph at n in {500, 1405
// (paper NYSE), 10000}: synthetic relations at Table III's ~0.3% wiki pair
// density over K = 5 types, seeded Rng(42 + n). Each row records the graph
// it measured: undirected edges, CSR entries and bytes, and the bytes an
// O(N^2) dense [N, N] mask would take.
graph::RelationTensor ScaleUniverse(int64_t n) {
  constexpr double kDensity = 0.003;
  constexpr int64_t kTypes = 5;
  Rng rng(static_cast<uint64_t>(42 + n));
  const int64_t pairs =
      static_cast<int64_t>(kDensity * static_cast<double>(n) * (n - 1) / 2);
  graph::RelationTensor rel(n, kTypes);
  for (int64_t e = 0; e < pairs; ++e) {
    const int64_t i = static_cast<int64_t>(rng.UniformInt(n));
    const int64_t j = static_cast<int64_t>(rng.UniformInt(n));
    if (i == j) continue;
    rel.AddRelation(i, j, static_cast<int64_t>(rng.UniformInt(kTypes)))
        .Abort();
  }
  return rel;
}

void SetScaleCounters(benchmark::State& state,
                      const graph::RelationTensor& rel) {
  const graph::CsrPtr csr = graph::CsrGraph::NormalizedAdjacency(rel);
  const auto n = static_cast<double>(rel.num_stocks());
  state.counters["edges"] = static_cast<double>(rel.num_edges());
  state.counters["csr_entries"] = static_cast<double>(csr->num_entries());
  state.counters["csr_bytes"] = static_cast<double>(csr->ApproxBytes());
  state.counters["dense_mask_bytes"] = n * n * sizeof(float);
}

void ScaleSizes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n"})->Arg(500)->Arg(1405)->Arg(10000);
  b->Unit(benchmark::kMillisecond);
}

void BM_CsrBuild(benchmark::State& state) {
  const graph::RelationTensor rel = ScaleUniverse(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CsrGraph::NormalizedAdjacency(rel));
  }
  SetScaleCounters(state, rel);
}
BENCHMARK(BM_CsrBuild)->Apply(ScaleSizes);

// One full train step (forward + backward + Adam) of the time-sensitive
// RT-GCN on the scale universe, at the default thread pool. The loss is
// the O(N) regression term: the pairwise ranking loss's O(N^2) compute
// would dominate, and defeat, the O(E) scaling measurement at n = 10000.
void BM_ScaleTrainStep(benchmark::State& state) {
  const int64_t n = state.range(0);
  const graph::RelationTensor rel = ScaleUniverse(n);
  Rng rng(11);
  core::RtGcnConfig cfg;
  cfg.strategy = core::Strategy::kTimeSensitive;
  cfg.window = 8;
  cfg.num_features = 4;
  cfg.relational_filters = 16;
  core::RtGcnModel model(rel, cfg, &rng);
  ag::Adam opt(model.Parameters(), 1e-3f);
  const Tensor x =
      RandomUniform({cfg.window, n, cfg.num_features}, 0.9f, 1.1f, &rng);
  const Tensor y = RandomGaussian({n}, 0, 0.02f, &rng);
  for (auto _ : state) {
    opt.ZeroGrad();
    auto scores = model.Forward(ag::Constant(x), &rng);
    ag::Backward(core::RegressionLoss(scores, y));
    opt.Step();
  }
  SetScaleCounters(state, rel);
}
BENCHMARK(BM_ScaleTrainStep)->Apply(ScaleSizes);

}  // namespace
}  // namespace rtgcn

BENCHMARK_MAIN();
