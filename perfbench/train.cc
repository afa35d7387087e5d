// `train` workload: the RT-GCN training step at paper scale (NASDAQ-shaped
// universe at --scale full, N = 840, strategy T, sparse graph), one step per
// training day in shuffled order. Each step makes the public calls
// GradientPredictor::TrainStep makes: RtGcnModel::Forward ->
// core::CombinedLoss -> ag::Backward -> ClipGradNorm -> Adam::Step, after
// WindowDataset::Features/Labels for the day.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "baselines/rtgcn_predictor.h"
#include "bench.h"
#include "core/loss.h"
#include "core/rtgcn.h"
#include "graph/sparse.h"
#include "market/market.h"
#include "nn/temporal_conv.h"
#include "rank/metrics.h"
#include "tensor/init.h"

namespace perfbench {

namespace {

using namespace rtgcn;

constexpr double kFullScale = 7.0;  // NasdaqSpec(7) has the paper's N = 840
constexpr int kSetups = 5;          // setup_s is the median of these
constexpr int kWarmupSteps = 8;   // the first steps run slow
constexpr size_t kReplaySteps = 10;  // checked bit-exactly at one thread
constexpr int kSliceSteps = 8;      // throughput is a median over slices
constexpr double kTailPercentile = 0.95;
constexpr float kAlpha = 0.1f;
constexpr float kLearningRate = 1e-3f;
constexpr float kWeightDecay = 1e-4f;
constexpr float kGradClip = 5.0f;

// Market, dataset and day split: the inputs, generated from the seed.
struct TrainData {
  market::MarketData market;
  std::unique_ptr<market::WindowDataset> dataset;
  std::vector<int64_t> train_days;
  std::vector<int64_t> test_days;
};

std::unique_ptr<TrainData> BuildData(uint64_t seed,
                                     const core::RtGcnConfig& config) {
  auto data = std::make_unique<TrainData>();
  market::MarketSpec spec = market::NasdaqSpec(kFullScale);
  spec.seed = SeedFor(seed, 1);
  data->market = market::BuildMarket(spec);
  data->dataset = std::make_unique<market::WindowDataset>(
      data->market.MakeDataset(config.window, config.num_features));
  const market::DatasetSplit split =
      market::SplitByDay(*data->dataset, spec.test_boundary());
  data->train_days = split.train_days;
  data->test_days = split.test_days;
  return data;
}

// Model, optimizer and the RNG that drives dropout and the day shuffle.
struct TrainState {
  std::unique_ptr<core::RtGcnModel> model;
  std::unique_ptr<ag::Adam> optimizer;
  Rng rng;
  std::vector<int64_t> order;
  size_t cursor = 0;
};

std::unique_ptr<TrainState> MakeState(const TrainData& data, uint64_t seed,
                                      const core::RtGcnConfig& config) {
  auto state = std::make_unique<TrainState>();
  Rng init(SeedFor(seed, 2));
  state->model = std::make_unique<core::RtGcnModel>(
      data.market.relations.relations, config, &init);
  state->model->SetTraining(true);
  state->optimizer = std::make_unique<ag::Adam>(
      state->model->Parameters(), kLearningRate, 0.9f, 0.999f, 1e-8f,
      kWeightDecay);
  state->rng.Seed(SeedFor(seed, 3));
  state->order = data.train_days;
  state->rng.Shuffle(&state->order);
  return state;
}

// One training step; returns the loss. A non-finite loss skips the update.
double Step(const TrainData& data, TrainState* s, Ledger* ledger) {
  Ledger::Scope step(ledger, "train.step");
  if (s->cursor == s->order.size()) {
    s->rng.Shuffle(&s->order);
    s->cursor = 0;
  }
  const int64_t day = s->order[s->cursor++];
  Tensor features, labels;
  {
    Ledger::Scope span(ledger, "market.features");
    features = data.dataset->Features(day);
    labels = data.dataset->Labels(day);
  }
  s->optimizer->ZeroGrad();
  ag::VarPtr scores;
  {
    Ledger::Scope span(ledger, "core.forward");
    scores = s->model->Forward(ag::Constant(features), &s->rng);
  }
  double loss_value = 0;
  ag::VarPtr loss;
  {
    Ledger::Scope span(ledger, "core.loss");
    loss = core::CombinedLoss(scores, labels, kAlpha);
    loss_value = loss->value.item();
  }
  if (!std::isfinite(loss_value)) return loss_value;
  {
    Ledger::Scope span(ledger, "autograd.backward");
    ag::Backward(loss);
  }
  {
    Ledger::Scope span(ledger, "autograd.optimizer");
    s->optimizer->ClipGradNorm(kGradClip);
    s->optimizer->Step();
  }
  return loss_value;
}

struct Window {
  std::vector<double> step_us;       // untraced steps
  std::vector<double> traced_us;     // traced steps (traced runs only)
  std::vector<double> slice_rates;   // steps per second per kSliceSteps steps
  uint64_t steps = 0;
  uint64_t non_finite = 0;
  double cpu_s = 0;
};

// Steps until `seconds` have passed. With a ledger, every other step is
// traced, so traced and untraced steps sample the same stretch of training
// and their medians give the tracing overhead.
Window RunWindow(const TrainData& data, TrainState* state, double seconds,
                 Ledger* ledger, std::vector<double>* losses) {
  Window w;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> done;
  for (int64_t t0 = start; t0 < end;) {
    const bool traced = ledger != nullptr && w.steps % 2 == 1;
    const double loss = Step(data, state, traced ? ledger : nullptr);
    const int64_t t1 = NowNs();
    ++w.steps;
    if (!std::isfinite(loss)) ++w.non_finite;
    losses->push_back(loss);
    (traced ? w.traced_us : w.step_us)
        .push_back(1e-3 * static_cast<double>(t1 - t0));
    done.push_back(t1);
    t0 = t1;
  }
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  int64_t prev = start;
  for (size_t i = kSliceSteps - 1; i < done.size(); i += kSliceSteps) {
    w.slice_rates.push_back(kSliceSteps * 1e9 /
                            static_cast<double>(done[i] - prev));
    prev = done[i];
  }
  if (w.slice_rates.empty()) {
    w.slice_rates.push_back(static_cast<double>(w.steps) * 1e9 /
                            static_cast<double>(done.back() - start));
  }
  return w;
}

// Median wall time of `steps` steps at `threads` pool threads, in ms.
double StepMs(const TrainData& data, TrainState* state, int threads,
              int steps) {
  UsePool(threads);
  Step(data, state, nullptr);  // let the pool resize before timing
  std::vector<double> ms;
  for (int i = 0; i < steps; ++i) {
    const int64_t t0 = NowNs();
    Step(data, state, nullptr);
    ms.push_back(1e-6 * static_cast<double>(NowNs() - t0));
  }
  return Median(ms);
}

// Per-layer measurements outside the step loop: layer-0 relational and
// temporal ops forward and backward, CSR build, a harness epoch and thread
// scaling.
void LayerLedger(const TrainData& data, TrainState* state,
                 const core::RtGcnConfig& config, const Host& host,
                 uint64_t seed, Ledger* ledger, Result* result) {
  constexpr int kRepeats = 8;
  const graph::RelationTensor& rel = data.market.relations.relations;
  Rng rng(SeedFor(seed, 4));
  const int64_t day = data.train_days.front();
  const Tensor features = data.dataset->Features(day);  // [T, N, D]
  const int64_t t_len = features.dim(0), n = features.dim(1);

  Phase("train ledger: csr");
  for (int i = 0; i < kRepeats; ++i) {
    Ledger::Scope span(ledger, "graph.csr_build");
    graph::CsrGraph::Build(rel, graph::CsrGraph::Norm::kSymmetric,
                           /*add_self_loops=*/true);
  }

  Phase("train ledger: relational");
  const graph::CsrPtr csr = graph::CsrGraph::NormalizedAdjacency(rel);
  auto w = ag::MakeVariable(
      RandomGaussian({rel.num_relation_types()}, 1.0f, 0.1f, &rng), true);
  auto b = ag::MakeVariable(Tensor::Zeros({1}), true);
  for (int i = 0; i < kRepeats; ++i) {
    auto x = ag::MakeVariable(features.Clone(), true);
    ag::VarPtr y;
    {
      Ledger::Scope span(ledger, "graph.relational_fwd");
      y = graph::SparseTimeSensitivePropagate(csr, w, b, x);
    }
    Ledger::Scope span(ledger, "graph.relational_bwd");
    ag::Backward(y);
  }

  Phase("train ledger: temporal");
  nn::TemporalConvBlock block(config.relational_filters,
                              config.relational_filters,
                              config.temporal_kernel, &rng, /*dilation=*/1,
                              config.temporal_stride, config.dropout);
  block.SetTraining(true);
  const Tensor hidden =
      RandomGaussian({t_len, n, config.relational_filters}, 0.0f, 1.0f, &rng);
  for (int i = 0; i < kRepeats; ++i) {
    auto x = ag::MakeVariable(hidden.Clone(), true);
    ag::VarPtr y;
    {
      Ledger::Scope span(ledger, "nn.temporal_fwd");
      y = block.Forward(x, &rng);
    }
    Ledger::Scope span(ledger, "nn.temporal_bwd");
    ag::Backward(y);
  }

  Phase("train ledger: harness epoch");
  constexpr size_t kFitDays = 16;
  {
    baselines::RtGcnPredictor predictor(rel, config, kAlpha, SeedFor(seed, 2));
    harness::TrainOptions options;
    options.epochs = 1;
    options.seed = SeedFor(seed, 3);
    const std::vector<int64_t> days(data.train_days.begin(),
                                    data.train_days.begin() + kFitDays);
    Ledger::Scope span(ledger, "harness.fit_epoch");
    predictor.Fit(*data.dataset, days, options);
  }

  Phase("train ledger: thread scaling");
  constexpr int kScalingSteps = 5;
  const double ms_1t = StepMs(data, state, 1, kScalingSteps);
  const double ms_pool = StepMs(data, state, host.pool, kScalingSteps);
  const double ms_nproc = StepMs(data, state, host.nproc, kScalingSteps);
  UsePool(host.pool);

  const std::string tput = "train throughput_per_s";
  result->Add("train.market.features_us",
              Median(ledger->DurationsUs("market.features")), "us", tput);
  result->Add("train.core.forward_us",
              Median(ledger->DurationsUs("core.forward")), "us",
              "train latency_p50_us");
  result->Add("train.core.loss_us", Median(ledger->DurationsUs("core.loss")),
              "us", "train latency_p50_us");
  result->Add("train.autograd.backward_us",
              Median(ledger->DurationsUs("autograd.backward")), "us", tput);
  result->Add("train.autograd.optimizer_us",
              Median(ledger->DurationsUs("autograd.optimizer")), "us", tput);
  result->Add("train.graph.relational_fwd_us",
              Median(ledger->DurationsUs("graph.relational_fwd")), "us", tput);
  result->Add("train.graph.relational_bwd_us",
              Median(ledger->DurationsUs("graph.relational_bwd")), "us", tput);
  result->Add("train.nn.temporal_fwd_us",
              Median(ledger->DurationsUs("nn.temporal_fwd")), "us",
              tput + ", cpu_us_per_op");
  result->Add("train.nn.temporal_bwd_us",
              Median(ledger->DurationsUs("nn.temporal_bwd")), "us",
              tput + ", cpu_us_per_op");
  result->Add("train.graph.csr_build_ms",
              1e-3 * Median(ledger->DurationsUs("graph.csr_build")), "ms",
              "train setup_s");
  result->Add("train.harness.fit_epoch_s",
              1e-6 * Median(ledger->DurationsUs("harness.fit_epoch")), "s",
              tput + " (a " + std::to_string(kFitDays) + "-day epoch)");
  result->Add("train.unattributed_us", Median(ledger->SelfUs("train.step")),
              "us", "train latency_p50_us");
  result->Add("train.common.step_ms_1t", ms_1t, "ms", tput + ", cpu_us_per_op");
  result->Add("train.common.step_ms_pool", ms_pool, "ms",
              tput + ", cpu_us_per_op");
  result->Add("train.common.step_ms_nproc", ms_nproc, "ms",
              tput + ", cpu_us_per_op");
}

}  // namespace

Result RunTrain(const Options& options, const Host& host) {
  Result result;
  UsePool(host.pool);
  core::RtGcnConfig config;  // paper defaults: strategy T, T = 15, F = 16
  Ledger ledger(options.trace);

  // Set up kSetups times; the last set-up is the one that trains.
  std::unique_ptr<TrainData> data;
  std::unique_ptr<TrainState> state;
  std::vector<double> setup_s;
  std::vector<double> losses;
  for (int i = 0; i < kSetups; ++i) {
    Phase("train setup " + std::to_string(i + 1));
    state.reset();
    data.reset();
    losses.clear();
    const int64_t t0 = NowNs();
    data = BuildData(options.seed, config);
    state = MakeState(*data, options.seed, config);
    for (int s = 0; s < kWarmupSteps; ++s) {
      losses.push_back(Step(*data, state.get(), nullptr));
    }
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - t0));
  }
  const int64_t n = data->dataset->num_stocks();
  result.Config("universe", "NASDAQ-shaped, N=" + std::to_string(n) +
                                ", strategy T, " +
                                std::to_string(data->train_days.size()) +
                                " train days");
  result.Config("tail_percentile", "p95");

  // Timed window.
  Phase("train window");
  const int64_t steal0 = StealTicks();
  const Window w = RunWindow(*data, state.get(), options.seconds,
                             options.trace ? &ledger : nullptr, &losses);
  result.attempted = w.steps;
  result.completed = w.steps - w.non_finite;
  result.failed = w.non_finite;
  if (w.non_finite > 0) {
    result.Fail(std::to_string(w.non_finite) + " steps had a non-finite loss");
  }
  result.Config("host_steal_pct",
                std::to_string(StealPercent(steal0, options.seconds)));
  result.Config("samples", std::to_string(w.step_us.size()));
  result.Config("tail_samples_beyond",
                std::to_string(static_cast<int64_t>(
                    static_cast<double>(w.step_us.size()) *
                    (1 - kTailPercentile))));
  if (options.trace) {
    LayerLedger(*data, state.get(), config, host, options.seed, &ledger,
                &result);
    result.Add("train.trace_overhead_pct",
               100.0 * (Median(w.traced_us) / Median(w.step_us) - 1.0), "%",
               "none: traced minus untraced step p50");
  } else {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("throughput_per_s", Median(w.slice_rates), "1/s");
    result.Add("latency_p50_us", Percentile(w.step_us, 0.5), "us");
    result.Add("latency_tail_us", Percentile(w.step_us, kTailPercentile), "us");
    result.Add("cpu_us_per_op", 1e6 * w.cpu_s / static_cast<double>(w.steps),
               "us");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
  }

  // Output checks, outside the timed window.
  Phase("train checks");
  {
    // Test-day ranking quality of the model as trained so far.
    ag::NoGradGuard no_grad;
    state->model->SetTraining(false);
    double mrr = 0, irr5 = 0;
    for (const int64_t day : data->test_days) {
      const Tensor scores =
          state->model->Forward(ag::Constant(data->dataset->Features(day)),
                                &state->rng)
              ->value;
      const Tensor labels = data->dataset->Labels(day);
      mrr += rank::ReciprocalRankTop1(scores, labels);
      irr5 += rank::TopKReturn(scores, labels, 5);
    }
    state->model->SetTraining(true);
    mrr /= static_cast<double>(data->test_days.size());
    std::printf("train check: test MRR %.6f, IRR-5 %.6f over %zu days; "
                "final loss %.17g\n",
                mrr, irr5, data->test_days.size(), losses.back());
    if (!(mrr > 0 && mrr <= 1) || !std::isfinite(irr5)) {
      result.Fail("test-day MRR/IRR-5 out of range");
    }
  }
  {
    // The first steps again from the same seed at one thread: the loss
    // sequence must match the pool run bit for bit.
    UsePool(1);
    auto replay = MakeState(*data, options.seed, config);
    for (size_t i = 0; i < kReplaySteps && i < losses.size(); ++i) {
      const double loss = Step(*data, replay.get(), nullptr);
      if (std::memcmp(&loss, &losses[i], sizeof(loss)) != 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "step %zu loss %.17g at 1 thread != %.17g at %d", i,
                      loss, losses[i], host.pool);
        result.Fail(buf);
        break;
      }
    }
    UsePool(host.pool);
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/train-trace.json";
    if (!ledger.WriteChromeTrace(path)) Phase("could not write " + path);
  }
  return result;
}

}  // namespace perfbench
