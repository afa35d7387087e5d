// Reproduces Table IV: performance comparison of all baselines on the three
// (simulated) markets — MRR and IRR-1/5/10 per model, plus the paired
// Wilcoxon p-value of RT-GCN (T) against the strongest baseline.
//
// Flags: --markets NASDAQ,NYSE,CSI  --reps 2  --epochs 8  --scale 1.0
// (--help prints the full generated list, checkpointing flags included).
// The paper's protocol is --reps 15; the default keeps a single-core run
// tractable (see EXPERIMENTS.md).
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "rank/wilcoxon.h"

namespace rtgcn::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t reps = 2;
  int64_t epochs = 8;
  BenchFlags bench;
  FlagSet fs("Table IV reproduction: MRR/IRR of every baseline per market, "
             "with Wilcoxon significance of RT-GCN (T).");
  fs.Register("reps", &reps, "training repetitions per model");
  fs.Register("epochs", &epochs, "training epochs per model");
  RegisterBenchFlags(&fs, &bench);
  RegisterCheckpointFlags(&fs, &bench);
  fs.ParseOrDie(argc, argv);
  bench.Apply();

  for (const market::MarketSpec& spec : bench.Markets()) {
    std::printf("=== Table IV — %s (simulated, %lld stocks, %lld train / "
                "%lld test days, %lld reps) ===\n",
                spec.name.c_str(), (long long)spec.num_stocks,
                (long long)spec.train_days, (long long)spec.test_days,
                (long long)reps);
    market::MarketData data = market::BuildMarket(spec);

    harness::TablePrinter table(
        {"Cat", "Model", "MRR", "IRR-1", "IRR-5", "IRR-10"});
    std::map<std::string, baselines::RepeatedMetrics> results;
    std::string prev_cat;
    for (const std::string& model : baselines::Table4Models()) {
      baselines::ExperimentConfig config;
      config.model = model;
      config.train.epochs = epochs;
      // With --checkpoint_dir set, a killed sweep resumes the interrupted
      // model's training from its latest epoch checkpoint (per-model subdir
      // so repetitions/models don't collide).
      bench.ApplyCheckpoints(&config.train);
      if (!config.train.checkpoint_dir.empty()) {
        config.train.checkpoint_dir += "/" + spec.name + "_" + model;
      }
      // alpha tuned on this simulator (Fig. 7 sweep): 0.1 for every market.
      config.model_config.alpha = 0.1f;
      baselines::RepeatedMetrics m = baselines::RunRepeated(data, config, reps);
      results[model] = m;
      const std::string cat = baselines::ModelCategory(model);
      if (cat != prev_cat && !prev_cat.empty()) table.AddSeparator();
      prev_cat = cat;
      table.AddRow({cat, model, m.has_mrr ? Fmt3(m.MeanMrr()) : "-",
                    Fmt2(m.MeanIrr(1)), Fmt2(m.MeanIrr(5)),
                    Fmt2(m.MeanIrr(10))});
      std::printf("  done: %s\n", model.c_str());
      std::fflush(stdout);
    }

    // Strongest baseline per metric (excluding our models) and Wilcoxon
    // significance of RT-GCN (T) over it.
    const auto& ours = results.at("RT-GCN (T)");
    std::vector<std::string> improvement = {"", "Improvement", "", "", "", ""};
    std::vector<std::string> pvalues = {"", "p-value", "", "", "", ""};
    auto metric_samples =
        [&](const baselines::RepeatedMetrics& m,
            int metric) -> const std::vector<double>& {
      return metric == 0 ? m.mrr : m.IrrSamples(metric == 1 ? 1 : metric == 2 ? 5 : 10);
    };
    for (int metric = 0; metric < 4; ++metric) {
      double best = -1e30;
      std::string best_model;
      for (const auto& [name, m] : results) {
        if (baselines::ModelCategory(name) == "Ours") continue;
        if (metric == 0 && !m.has_mrr) continue;
        const auto& s = metric_samples(m, metric);
        const double mean =
            std::accumulate(s.begin(), s.end(), 0.0) / s.size();
        if (mean > best) {
          best = mean;
          best_model = name;
        }
      }
      const auto& our_samples = metric_samples(ours, metric);
      const double our_mean =
          std::accumulate(our_samples.begin(), our_samples.end(), 0.0) /
          our_samples.size();
      const double gain = best != 0 ? (our_mean - best) / std::fabs(best) : 0;
      improvement[metric + 2] = FormatFixed(100.0 * gain, 1) + "%";
      pvalues[metric + 2] = FmtP(rank::PairedWilcoxonPValue(
          our_samples, metric_samples(results.at(best_model), metric)));
    }
    table.AddSeparator();
    table.AddRow(improvement);
    table.AddRow(pvalues);
    table.Print();
    std::printf(
        "\nPaper Table IV (%s, real data) for reference: RT-GCN (T) "
        "MRR/IRR-1/5/10 = %s; strongest baseline = RSR.\n\n",
        spec.name.c_str(),
        spec.name == "NASDAQ" ? "0.061 / 1.25 / 0.97 / 1.03"
        : spec.name == "NYSE" ? "0.056 / 0.92 / 1.10 / 1.13"
                              : "0.031 / 0.35 / 0.35 / 0.38");
  }
  return 0;
}

}  // namespace
}  // namespace rtgcn::bench

int main(int argc, char** argv) { return rtgcn::bench::Run(argc, argv); }
