// Reproduces Table V: comparison with RSR and STHAN-SR on the published
// industry-relation-only datasets ("NASDAQ-II" / "NYSE-II") — here, the same
// simulated markets restricted to industry relations. A one-sample Wilcoxon
// test checks RT-GCN (T)'s runs against each baseline's mean (the paper
// tests its 15 runs against the published numbers the same way).
//
// Flags: --reps 2  --epochs 8  --scale 1.0 (--help prints the full list).
#include <cstdio>

#include "bench_common.h"
#include "rank/wilcoxon.h"

namespace rtgcn::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t reps = 2;
  int64_t epochs = 8;
  BenchFlags bench;
  FlagSet fs("Table V reproduction: RSR / STHAN-SR / RT-GCN (T) on "
             "industry-only relations of NASDAQ-II and NYSE-II.");
  fs.Register("reps", &reps, "training repetitions per model");
  fs.Register("epochs", &epochs, "training epochs per model");
  RegisterBenchFlags(&fs, &bench, /*markets=*/false);
  fs.ParseOrDie(argc, argv);
  bench.Apply();
  const double scale = bench.Scale();

  for (market::MarketSpec spec :
       {market::NasdaqSpec(scale), market::NyseSpec(scale)}) {
    spec.name += "-II";
    std::printf("=== Table V — %s (industry relations only, %lld reps) ===\n",
                spec.name.c_str(), (long long)reps);
    market::MarketData data = market::BuildMarket(spec);

    harness::TablePrinter table({"Model", "MRR", "IRR-5", "IRR-10"});
    baselines::RepeatedMetrics ours;
    std::vector<std::pair<std::string, baselines::RepeatedMetrics>> rows;
    for (const std::string model :
         {"RSR_I", "RSR_E", "STHAN-SR", "RT-GCN (T)"}) {
      baselines::ExperimentConfig config;
      config.model = model;
      config.train.epochs = epochs;
      config.relations = baselines::RelationSubset::kIndustryOnly;
      baselines::RepeatedMetrics m = baselines::RunRepeated(data, config, reps);
      rows.emplace_back(model, m);
      if (model == "RT-GCN (T)") ours = m;
      table.AddRow({model, Fmt3(m.MeanMrr()), Fmt2(m.MeanIrr(5)),
                    Fmt2(m.MeanIrr(10))});
      std::printf("  done: %s\n", model.c_str());
      std::fflush(stdout);
    }
    table.Print();

    // One-sample Wilcoxon: are our IRR-5 runs greater than each baseline's
    // mean IRR-5?
    for (const auto& [model, m] : rows) {
      if (model == "RT-GCN (T)") continue;
      const double p =
          rank::OneSampleWilcoxonPValue(ours.IrrSamples(5), m.MeanIrr(5));
      std::printf("one-sample Wilcoxon, RT-GCN (T) IRR-5 > mean(%s): p = %s\n",
                  model.c_str(), FmtP(p).c_str());
    }
    std::printf(
        "\nPaper Table V (%s, real data): RSR_I MRR/IRR-5/IRR-10 = %s, "
        "STHAN-SR IRR-5 = %s, RT-GCN (T) = %s.\n\n",
        spec.name.c_str(),
        spec.name == "NASDAQ-II" ? "0.032 / 0.13 / 0.22" : "0.045 / 0.10 / 0.12",
        spec.name == "NASDAQ-II" ? "0.44" : "0.33",
        spec.name == "NASDAQ-II" ? "0.040 / 0.48 / 0.50"
                                 : "0.053 / 0.37 / 0.48");
  }
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
