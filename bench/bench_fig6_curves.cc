// Reproduces Figure 6: cumulative IRR-1/5/10 of the three RT-GCN strategies
// across the test period, against the market index (DJI / S&P 500 / CSI 300
// in the paper; here the simulated cap-weighted index). Prints curve
// checkpoints and writes full daily curves to fig6_<market>.csv.
//
// Flags: --markets NASDAQ,NYSE,CSI  --epochs 8  --scale 1.0
// (--help prints the full list).
#include <cstdio>

#include "bench_common.h"
#include "common/csv.h"
#include "harness/evaluator.h"
#include "rank/backtest.h"

namespace rtgcn::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t epochs = 8;
  BenchFlags bench;
  FlagSet fs("Figure 6 reproduction: cumulative IRR curves of the three "
             "RT-GCN strategies against the market index; writes "
             "fig6_<market>.csv.");
  fs.Register("epochs", &epochs, "training epochs per model");
  RegisterBenchFlags(&fs, &bench);
  fs.ParseOrDie(argc, argv);
  bench.Apply();

  for (const market::MarketSpec& spec : bench.Markets()) {
    std::printf("=== Figure 6 — return curves, %s (simulated) ===\n",
                spec.name.c_str());
    market::MarketData data = market::BuildMarket(spec);
    market::WindowDataset dataset = data.MakeDataset(15, 4);
    market::DatasetSplit split =
        SplitByDay(dataset, data.spec.test_boundary());

    CsvTable csv;
    csv.header = {"day"};
    std::vector<std::vector<double>> curves;
    std::vector<std::string> labels;

    for (const std::string model :
         {"RT-GCN (U)", "RT-GCN (W)", "RT-GCN (T)"}) {
      baselines::ExperimentConfig config;
      config.model = model;
      config.train.epochs = epochs;
      baselines::ExperimentResult r = baselines::RunExperiment(data, config);
      for (int64_t k : {1, 5, 10}) {
        labels.push_back(model + " IRR-" + std::to_string(k));
        curves.push_back(r.eval.backtest.irr_curve.at(k));
      }
      std::printf("  done: %s\n", model.c_str());
      std::fflush(stdout);
    }
    // Market index over the same days.
    const int64_t begin = split.test_days.front();
    const int64_t end = split.test_days.back() + 1;
    labels.push_back(spec.name == "CSI" ? "CSI 300 (sim index)"
                                        : "market index (sim)");
    curves.push_back(rank::IndexReturnCurve(data.sim.index, begin + 1, end + 1));

    // Checkpoint table every ~20 days.
    harness::TablePrinter table([&] {
      std::vector<std::string> header = {"series"};
      for (size_t d = 0; d < curves[0].size(); d += 20) {
        std::string name = "d";
        name += std::to_string(d);
        header.push_back(std::move(name));
      }
      header.push_back("final");
      return header;
    }());
    for (size_t c = 0; c < curves.size(); ++c) {
      std::vector<std::string> row = {labels[c]};
      for (size_t d = 0; d < curves[c].size(); d += 20) {
        row.push_back(Fmt2(curves[c][d]));
      }
      row.push_back(Fmt2(curves[c].back()));
      table.AddRow(row);
    }
    table.Print();

    // Full curves to CSV.
    for (const auto& label : labels) csv.header.push_back(label);
    const size_t days = curves[0].size();
    for (size_t d = 0; d < days; ++d) {
      std::vector<std::string> row = {std::to_string(d)};
      for (const auto& curve : curves) {
        row.push_back(d < curve.size() ? FormatFixed(curve[d], 4) : "");
      }
      csv.rows.push_back(std::move(row));
    }
    const std::string path = "fig6_" + spec.name + ".csv";
    WriteCsv(path, csv).Abort();
    std::printf("full daily curves written to %s\n", path.c_str());
    std::printf(
        "\nExpected shape (paper Fig. 6): IRR-1 is the most volatile "
        "series, IRR-5/IRR-10 rise smoothly, and all model curves finish "
        "above the market index.\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
