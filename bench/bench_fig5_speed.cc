// Reproduces Figure 5: training and testing speed of the ranking-based
// models (only ranking models, as in the paper — they are the ones that
// must consider stock relations). Reports seconds per training epoch and
// seconds per full test sweep, plus the speedup of RT-GCN (T) over each
// LSTM-based ranker.
//
// Flags: --markets NASDAQ,NYSE,CSI  --epochs 2  --scale 1.0  --num_threads 4
// (--help prints the full generated list).
#include <cstdio>

#include "bench_common.h"

namespace rtgcn::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t epochs = 2;
  BenchFlags bench;
  FlagSet fs("Figure 5 reproduction: training/testing speed of the "
             "ranking-based models.");
  fs.Register("epochs", &epochs, "training epochs per model");
  RegisterBenchFlags(&fs, &bench);
  fs.ParseOrDie(argc, argv);
  bench.Apply();

  for (const market::MarketSpec& spec : bench.Markets()) {
    std::printf("=== Figure 5 — speed, %s (simulated, %lld stocks) ===\n",
                spec.name.c_str(), (long long)spec.num_stocks);
    market::MarketData data = market::BuildMarket(spec);

    harness::TablePrinter table({"Model", "train s/epoch", "step p95 ms",
                                 "test s", "train vs RT-GCN (T)"});
    double rtgcn_train = 0;
    std::vector<std::tuple<std::string, double, double, double>> rows;
    for (const std::string model :
         {"Rank_LSTM", "RSR_I", "RSR_E", "RT-GAT", "RT-GCN (U)", "RT-GCN (W)",
          "RT-GCN (T)"}) {
      baselines::ExperimentConfig config;
      config.model = model;
      config.train.epochs = epochs;
      baselines::ExperimentResult r = baselines::RunExperiment(data, config);
      // Step p95 comes from the registry delta this Fit contributed
      // (FitStats::telemetry), so concurrent/back-to-back models don't
      // pollute each other's numbers.
      rows.emplace_back(model, r.fit.seconds_per_epoch(),
                        r.fit.telemetry.StepP95Millis(),
                        r.eval.test_seconds);
      if (model == "RT-GCN (T)") rtgcn_train = r.fit.seconds_per_epoch();
      std::printf("  done: %s\n", model.c_str());
      std::fflush(stdout);
    }
    for (const auto& [model, train_s, step_p95_ms, test_s] : rows) {
      table.AddRow({model, Fmt2(train_s), Fmt2(step_p95_ms), Fmt2(test_s),
                    rtgcn_train > 0
                        ? FormatFixed(train_s / rtgcn_train, 1) + "x"
                        : "-"});
    }
    table.Print();
    std::printf(
        "\nPaper Figure 5 (NASDAQ, TITAN GPUs): RT-GCN trains up to 3.2x "
        "faster than Rank_LSTM and 13.4x faster than RSR; testing 2.5x / "
        "3.6x faster. The CPU reproduction preserves the ordering (LSTM-"
        "based rankers slower than pure convolution); the magnitude differs "
        "because GPU parallelism over the time axis is the paper's main "
        "lever (see EXPERIMENTS.md).\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
