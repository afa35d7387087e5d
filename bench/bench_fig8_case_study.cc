// Reproduces Figure 8: qualitative case study — a trained RT-GCN (T)'s
// learned edge weights over a small related group of stocks, a heat-map of
// predicted daily return ratios over the first month of the test period,
// and the ground-truth normalized prices for comparison.
//
// Flags: --epochs 8  --days 22  --scale 1.0 (--help prints the full list).
#include <cstdio>

#include "baselines/rtgcn_predictor.h"
#include "bench_common.h"
#include "harness/evaluator.h"

namespace rtgcn::bench {
namespace {

// ASCII shade for the heat-map: darker = lower predicted return.
char Shade(float v, float lo, float hi) {
  static const char kLevels[] = " .:-=+*#%@";
  float x = (v - lo) / (hi - lo + 1e-9f);
  x = std::min(1.0f, std::max(0.0f, x));
  return kLevels[static_cast<int>(x * 9.0f)];
}

int Run(int argc, char** argv) {
  int64_t epochs = 8;
  int64_t num_days = 22;
  BenchFlags bench;
  FlagSet fs("Figure 8 reproduction: learned edge weights and prediction "
             "heat-map of a trained RT-GCN (T) on NASDAQ.");
  fs.Register("epochs", &epochs, "training epochs");
  fs.Register("days", &num_days, "test days in the heat-map");
  RegisterBenchFlags(&fs, &bench, /*markets=*/false);
  fs.ParseOrDie(argc, argv);
  bench.Apply();

  market::MarketSpec spec = market::NasdaqSpec(bench.Scale());
  market::MarketData data = market::BuildMarket(spec);
  market::WindowDataset dataset = data.MakeDataset(15, 4);
  market::DatasetSplit split = SplitByDay(dataset, spec.test_boundary());

  // Train RT-GCN (T).
  core::RtGcnConfig cfg;
  cfg.strategy = core::Strategy::kTimeSensitive;
  baselines::RtGcnPredictor model(data.relations.relations, cfg, 0.2f, 42);
  harness::TrainOptions opts;
  opts.epochs = epochs;
  model.Fit(dataset, split.train_days, opts);

  // Pick the stock with the most wiki links plus four of its neighbors —
  // the analogue of the paper's {LOGM, CDNS, CDW, ICUI, CGNX} group.
  const auto& rel = data.relations.relations;
  int64_t center = 0;
  int64_t best_links = -1;
  for (int64_t i = 0; i < rel.num_stocks(); ++i) {
    int64_t links = 0;
    for (const auto& l : data.relations.wiki_links) {
      if (l.source == i || l.target == i) ++links;
    }
    if (links > best_links) {
      best_links = links;
      center = i;
    }
  }
  std::vector<int64_t> group = {center};
  for (int64_t j = 0; j < rel.num_stocks() && group.size() < 5; ++j) {
    if (j != center && rel.HasEdge(center, j)) group.push_back(j);
  }

  // (a) learned edge weights: the layer-1 propagation matrix for the first
  // test day's features, restricted to the group.
  const Tensor prop =
      model.model().Propagation(dataset.Features(split.test_days.front()));
  std::printf("=== Figure 8(a) — learned edge weights (time-averaged "
              "propagation, RT-GCN (T)) ===\n        ");
  for (int64_t j : group) {
    std::printf("%7s", data.universe.stock(j).ticker.c_str());
  }
  std::printf("\n");
  for (int64_t i : group) {
    std::printf("%7s ", data.universe.stock(i).ticker.c_str());
    for (int64_t j : group) {
      std::printf("%7.3f", prop.at({i, j}));
    }
    std::printf("\n");
  }
  std::printf("\n=== Figure 8(b) — stock group ===\n");
  for (int64_t i : group) {
    const auto types = rel.Types(center, i);
    std::printf("  %s  industry=%d  relations-to-%s=%zu%s\n",
                data.universe.stock(i).ticker.c_str(),
                data.universe.stock(i).industry,
                data.universe.stock(center).ticker.c_str(), types.size(),
                i == center ? "  (center)" : "");
  }

  // (c) predicted return-ratio heat-map and (d) normalized prices.
  const int64_t days =
      std::min<int64_t>(num_days, static_cast<int64_t>(split.test_days.size()));
  std::vector<std::vector<float>> predicted(group.size()),
      truth(group.size());
  float lo = 1e9f, hi = -1e9f;
  for (int64_t d = 0; d < days; ++d) {
    const int64_t day = split.test_days[d];
    Tensor scores = model.Predict(dataset, day);
    Tensor labels = dataset.Labels(day);
    for (size_t g = 0; g < group.size(); ++g) {
      const float p = scores.data()[group[g]];
      predicted[g].push_back(p);
      truth[g].push_back(labels.data()[group[g]]);
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
  }
  std::printf("\n=== Figure 8(c) — predicted daily return heat-map "
              "(first %lld test days; dark=low, bright=high) ===\n",
              (long long)days);
  for (size_t g = 0; g < group.size(); ++g) {
    std::printf("%7s |", data.universe.stock(group[g]).ticker.c_str());
    for (float v : predicted[g]) std::printf("%c", Shade(v, lo, hi));
    std::printf("|\n");
  }
  std::printf("\n=== Figure 8(d) — realized next-day returns (same scale) "
              "===\n");
  float tlo = 1e9f, thi = -1e9f;
  for (const auto& row : truth) {
    for (float v : row) {
      tlo = std::min(tlo, v);
      thi = std::max(thi, v);
    }
  }
  for (size_t g = 0; g < group.size(); ++g) {
    std::printf("%7s |", data.universe.stock(group[g]).ticker.c_str());
    for (float v : truth[g]) std::printf("%c", Shade(v, tlo, thi));
    std::printf("|\n");
  }

  // Quantitative check standing in for "the prediction tracks reality":
  // correlation between predicted and realized per-day group patterns.
  double num = 0, dp = 0, dt = 0;
  for (size_t g = 0; g < group.size(); ++g) {
    for (int64_t d = 0; d < days; ++d) {
      num += predicted[g][d] * truth[g][d];
      dp += predicted[g][d] * predicted[g][d];
      dt += truth[g][d] * truth[g][d];
    }
  }
  std::printf("\npred/realized correlation over the group: %.3f "
              "(paper reports qualitative agreement)\n",
              num / (std::sqrt(dp * dt) + 1e-12));
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
