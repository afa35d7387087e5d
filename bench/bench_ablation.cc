// Ablation bench for the design choices DESIGN.md §5 calls out — not a
// paper table, but the evidence behind this reproduction's resolved
// under-specifications:
//   * temporal stride / pooling (receptive-field compression),
//   * loss normalization (α with sum- vs mean-normalized ranking loss),
//   * relational filter width.
//
// Flags: --epochs 6  --reps 1  --scale 1.0 (--help prints the full list).
#include <cstdio>

#include "baselines/rtgcn_predictor.h"
#include "bench_common.h"
#include "harness/evaluator.h"

namespace rtgcn::bench {
namespace {

struct Variant {
  std::string tag;
  core::RtGcnConfig config;
  float alpha = 0.2f;
};

int Run(int argc, char** argv) {
  int64_t epochs = 6;
  int64_t reps = 1;
  BenchFlags bench;
  FlagSet fs("Design-choice ablation of RT-GCN (T) on NASDAQ: stride, "
             "pooling, width, alpha.");
  fs.Register("epochs", &epochs, "training epochs per variant");
  fs.Register("reps", &reps, "training repetitions per variant");
  RegisterBenchFlags(&fs, &bench, /*markets=*/false);
  fs.ParseOrDie(argc, argv);
  bench.Apply();

  market::MarketSpec spec = market::NasdaqSpec(bench.Scale());
  market::MarketData data = market::BuildMarket(spec);
  market::WindowDataset dataset = data.MakeDataset(15, 4);
  market::DatasetSplit split = SplitByDay(dataset, spec.test_boundary());

  std::vector<Variant> variants;
  {
    core::RtGcnConfig base;
    base.strategy = core::Strategy::kTimeSensitive;
    base.relational_filters = 32;

    Variant v{"default (stride 4, mean, f32)", base};
    variants.push_back(v);

    v = {"stride 2 (H = 4), mean pooling", base};
    v.config.temporal_stride = 2;
    variants.push_back(v);

    v = {"stride 1 (H = 15), mean pooling", base};
    v.config.temporal_stride = 1;
    variants.push_back(v);

    v = {"stride 2, last-position pooling", base};
    v.config.temporal_stride = 2;
    v.config.pooling = core::TemporalPooling::kLast;
    variants.push_back(v);

    v = {"filters 16", base};
    v.config.relational_filters = 16;
    variants.push_back(v);

    v = {"two stacked RT-GCN layers", base};
    v.config.num_layers = 2;
    v.config.temporal_stride = 2;
    variants.push_back(v);

    v = {"alpha 0 (regression only)", base};
    v.alpha = 0.0f;
    variants.push_back(v);
  }

  std::printf("=== Design-choice ablation — RT-GCN (T) on %s ===\n",
              spec.name.c_str());
  harness::TablePrinter table(
      {"Variant", "MRR", "IRR-1", "IRR-5", "IRR-10", "s/epoch"});
  for (const Variant& v : variants) {
    double mrr = 0, irr1 = 0, irr5 = 0, irr10 = 0, sec = 0;
    for (int64_t rep = 0; rep < reps; ++rep) {
      baselines::RtGcnPredictor model(data.relations.relations, v.config,
                                      v.alpha, 1000 + 31 * rep);
      harness::TrainOptions opts;
      opts.epochs = epochs;
      opts.seed = 2000 + 17 * rep;
      model.Fit(dataset, split.train_days, opts);
      Rng rng(5 + rep);
      auto eval = Evaluate(&model, dataset, split.test_days, &rng);
      mrr += eval.backtest.mrr / reps;
      irr1 += eval.backtest.irr.at(1) / reps;
      irr5 += eval.backtest.irr.at(5) / reps;
      irr10 += eval.backtest.irr.at(10) / reps;
      sec += model.fit_stats().seconds_per_epoch() / reps;
    }
    table.AddRow({v.tag, Fmt3(mrr), Fmt2(irr1), Fmt2(irr5), Fmt2(irr10),
                  Fmt2(sec)});
    std::printf("  done: %s\n", v.tag.c_str());
    std::fflush(stdout);
  }
  table.Print();
  std::printf(
      "\nReading guide: weaker temporal compression (stride 1-2 with mean "
      "pooling) dilutes the recency signal; last-position pooling recovers "
      "it, matching the default's strong compression. alpha 0 drops the "
      "learning-to-rank term (Table IV's REG-vs-RAN contrast).\n");
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
