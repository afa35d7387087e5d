// Quickstart: simulate a small market, train RT-GCN (time-sensitive
// strategy), and backtest the daily top-k strategy on held-out days.
//
//   ./quickstart [--stocks 60] [--epochs 8] [--window 15]
//               [--checkpoint_dir DIR] [--checkpoint_every 1]
//
// With --checkpoint_dir the run checkpoints every epoch and, if killed,
// resumes from the latest checkpoint on the next invocation — producing
// bit-identical final weights to an uninterrupted run.
#include <cstdio>

#include "baselines/catalog.h"
#include "common/flags.h"
#include "market/market.h"
#include "rank/backtest.h"

int main(int argc, char** argv) {
  using namespace rtgcn;

  // 1. Build a simulated market (universe + relations + prices).
  market::MarketSpec spec = market::NasdaqSpec(/*scale=*/0.5);
  spec.train_days = 260;
  spec.test_days = 60;

  baselines::ExperimentConfig config;
  config.model = "RT-GCN (T)";
  config.train.epochs = 8;
  config.train.verbose = true;

  FlagSet fs("Train RT-GCN (T) on a simulated market and backtest the "
             "daily top-k strategy on held-out days.");
  fs.Register("stocks", &spec.num_stocks, "simulated universe size");
  fs.Register("window", &config.model_config.window,
              "look-back window length");
  fs.Register("epochs", &config.train.epochs, "training epochs");
  fs.Register("checkpoint_dir", &config.train.checkpoint_dir,
              "checkpoint every epoch into this directory (empty = off)");
  fs.Register("checkpoint_every", &config.train.checkpoint_every,
              "epochs between checkpoints");
  fs.Register("resume", &config.train.resume,
              "resume from the latest checkpoint if one exists");
  fs.ParseOrDie(argc, argv);

  market::MarketData data = market::BuildMarket(spec);
  std::printf("Market %s: %lld stocks, %lld industries, %lld related pairs "
              "(ratio %.1f%%)\n",
              spec.name.c_str(), (long long)spec.num_stocks,
              (long long)spec.num_industries,
              (long long)data.relations.relations.num_edges(),
              100.0 * data.relations.relations.RelationRatio());

  // 2. Train RT-GCN (T).
  baselines::ExperimentResult result = baselines::RunExperiment(data, config);

  // 3. Report test-period metrics.
  std::printf("\n%s after %lld epochs (%.1fs train, %.2fs test):\n",
              result.model.c_str(), (long long)config.train.epochs,
              result.fit.train_seconds, result.eval.test_seconds);
  std::printf("  MRR    = %.3f\n", result.eval.backtest.mrr);
  for (int64_t k : {1, 5, 10}) {
    std::printf("  IRR-%-2lld = %.2f  (cumulative return over %lld test days)\n",
                (long long)k, result.eval.backtest.irr.at(k),
                (long long)result.eval.backtest.num_days);
  }
  return 0;
}
