// Reproduces Table VII: module ablation — R-Conv (relational convolution
// only) and T-Conv (temporal convolution only) against the full RT-GCN (U).
//
// Flags: --markets NASDAQ,NYSE,CSI  --reps 1  --epochs 8  --scale 1.0
// (--help prints the full list).
#include <cstdio>

#include "bench_common.h"

namespace rtgcn::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t reps = 1;
  int64_t epochs = 8;
  BenchFlags bench;
  FlagSet fs("Table VII reproduction: R-Conv / T-Conv module ablation "
             "against RT-GCN (U).");
  fs.Register("reps", &reps, "training repetitions per model");
  fs.Register("epochs", &epochs, "training epochs per model");
  RegisterBenchFlags(&fs, &bench);
  fs.ParseOrDie(argc, argv);
  bench.Apply();

  for (const market::MarketSpec& spec : bench.Markets()) {
    market::MarketData data = market::BuildMarket(spec);
    std::printf("=== Table VII — %s: module ablation ===\n",
                spec.name.c_str());
    harness::TablePrinter table({"Model", "MRR", "IRR-1", "IRR-5", "IRR-10"});
    for (const std::string model : {"RT-GCN (U)", "R-Conv", "T-Conv"}) {
      baselines::ExperimentConfig config;
      config.model = model;
      config.train.epochs = epochs;
      baselines::RepeatedMetrics m = baselines::RunRepeated(data, config, reps);
      table.AddRow({model, Fmt3(m.MeanMrr()), Fmt2(m.MeanIrr(1)),
                    Fmt2(m.MeanIrr(5)), Fmt2(m.MeanIrr(10))});
      std::printf("  done: %s\n", model.c_str());
      std::fflush(stdout);
    }
    table.Print();
    std::printf(
        "\nExpected shape (paper Table VII): R-Conv worst, T-Conv in the "
        "middle (stock prediction leans on temporal features), full "
        "RT-GCN (U) best.\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
