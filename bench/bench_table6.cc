// Reproduces Table VI: wiki relations vs industry relations ablation on the
// NASDAQ and NYSE markets (Rank_LSTM is relation-blind, so its row is the
// control — identical under both relation subsets).
//
// Flags: --reps 1  --epochs 8  --scale 1.0 (--help prints the full list).
#include <cstdio>

#include "bench_common.h"

namespace rtgcn::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t reps = 1;
  int64_t epochs = 8;
  BenchFlags bench;
  FlagSet fs("Table VI reproduction: wiki vs industry relations on NASDAQ "
             "and NYSE.");
  fs.Register("reps", &reps, "training repetitions per model");
  fs.Register("epochs", &epochs, "training epochs per model");
  RegisterBenchFlags(&fs, &bench, /*markets=*/false);
  fs.ParseOrDie(argc, argv);
  bench.Apply();
  const double scale = bench.Scale();

  for (const market::MarketSpec& spec :
       {market::NasdaqSpec(scale), market::NyseSpec(scale)}) {
    market::MarketData data = market::BuildMarket(spec);
    std::printf("=== Table VI — %s: wiki vs industry relations ===\n",
                spec.name.c_str());
    std::printf("relation ratios: wiki %.1f%%, industry %.1f%% "
                "(paper: 0.3-0.4%% / 5.4-6.9%%)\n",
                100.0 * data.relations.WikiOnly().RelationRatio(),
                100.0 * data.relations.IndustryOnly().RelationRatio());

    harness::TablePrinter table({"Model", "W MRR", "W IRR-1", "W IRR-5",
                                 "W IRR-10", "I MRR", "I IRR-1", "I IRR-5",
                                 "I IRR-10"});
    for (const std::string model :
         {"Rank_LSTM", "RT-GCN (U)", "RT-GCN (W)", "RT-GCN (T)"}) {
      std::vector<std::string> row = {model};
      for (auto subset : {baselines::RelationSubset::kWikiOnly,
                          baselines::RelationSubset::kIndustryOnly}) {
        baselines::ExperimentConfig config;
        config.model = model;
        config.train.epochs = epochs;
        config.relations = subset;
        baselines::RepeatedMetrics m =
            baselines::RunRepeated(data, config, reps);
        row.push_back(Fmt3(m.MeanMrr()));
        row.push_back(Fmt2(m.MeanIrr(1)));
        row.push_back(Fmt2(m.MeanIrr(5)));
        row.push_back(Fmt2(m.MeanIrr(10)));
      }
      table.AddRow(std::move(row));
      std::printf("  done: %s\n", model.c_str());
      std::fflush(stdout);
    }
    table.Print();
    std::printf(
        "\nExpected shape (paper Table VI): every RT-GCN strategy beats "
        "Rank_LSTM under either relation family, and industry relations "
        "(denser) beat wiki relations on most metrics.\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
