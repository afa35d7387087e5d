// Real-data workflow example: the full production path a downstream user
// follows with their own data —
//   1. load a close-price panel and a relation list from CSV,
//   2. build the window dataset and train RT-GCN (T),
//   3. checkpoint the trained model, reload it into a fresh instance,
//   4. verify the reloaded model reproduces the predictions, and score
//      today's ranking.
//
// Ships with a tiny bundled dataset written to /tmp so the example is
// runnable out of the box; point --prices/--relations at your own files.
#include <cstdio>
#include <fstream>

#include "baselines/rtgcn_predictor.h"
#include "common/flags.h"
#include "market/csv_loader.h"
#include "market/dataset.h"
#include "nn/serialize.h"
#include "rank/metrics.h"
#include "tensor/ops.h"

namespace {

// Writes a small demonstration dataset (12 tickers, 160 days, two relation
// types) in the loader's format.
void WriteDemoData(const std::string& prices_path,
                   const std::string& relations_path) {
  using rtgcn::Rng;
  Rng rng(2024);
  const int kStocks = 12, kDays = 160;
  std::ofstream prices(prices_path);
  prices << "day";
  for (int i = 0; i < kStocks; ++i) prices << ",STK" << i;
  prices << "\n";
  std::vector<double> level(kStocks, 100.0);
  for (int t = 0; t < kDays; ++t) {
    prices << t;
    const double sector_a = rng.Gaussian(0, 0.008);
    const double sector_b = rng.Gaussian(0, 0.008);
    for (int i = 0; i < kStocks; ++i) {
      const double sector = i < 6 ? sector_a : sector_b;
      level[i] *= 1.0 + 3e-4 + sector + rng.Gaussian(0, 0.01);
      prices << "," << level[i];
    }
    prices << "\n";
  }
  std::ofstream rels(relations_path);
  rels << "stock_i,stock_j,type\n";
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) rels << "STK" << i << ",STK" << j << ",0\n";
  }
  for (int i = 6; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) rels << "STK" << i << ",STK" << j << ",1\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtgcn;
  std::string prices_path;
  std::string relations_path;
  int64_t relation_types = 2;
  int64_t epochs = 10;
  std::string checkpoint_dir;
  bool resume = true;
  bool strict = false;
  FlagSet fs("Load a close-price panel and relation list from CSV, train "
             "RT-GCN (T), checkpoint, reload, and score today's ranking.");
  fs.Register("prices", &prices_path,
              "close-price CSV (empty = write and use bundled demo data)");
  fs.Register("relations", &relations_path, "relation-list CSV");
  fs.Register("relation_types", &relation_types,
              "number of relation types in the relation CSV");
  fs.Register("epochs", &epochs, "training epochs");
  fs.Register("checkpoint_dir", &checkpoint_dir,
              "checkpoint every epoch into this directory (empty = off)");
  fs.Register("resume", &resume,
              "resume from the latest checkpoint if one exists");
  fs.Register("strict", &strict,
              "fail on the first ingestion blemish instead of repairing");
  fs.ParseOrDie(argc, argv);

  if (prices_path.empty()) {
    prices_path = "/tmp/rtgcn_demo_prices.csv";
    relations_path = "/tmp/rtgcn_demo_relations.csv";
    WriteDemoData(prices_path, relations_path);
    std::printf("no --prices given; wrote demo data to %s\n",
                prices_path.c_str());
  }

  // 1. Load. Real exports are rarely pristine, so the default here is
  // tolerant ingestion: bad cells are forward-filled, stocks trading on
  // fewer than 98% of days are dropped, and bad relation rows are skipped —
  // with every repair accounted in a LoadReport. Pass --strict to fail on
  // the first blemish instead.
  market::LoadOptions load_options;
  load_options.mode = strict ? market::LoadOptions::Mode::kStrict
                             : market::LoadOptions::Mode::kTolerant;
  market::LoadReport report;
  market::PricePanel panel =
      market::LoadPricePanel(prices_path, load_options, &report).ValueOrDie();
  graph::RelationTensor relations =
      market::LoadRelations(relations_path, panel, relation_types,
                            load_options, &report)
          .ValueOrDie();
  std::printf("loaded %zu tickers, %lld days, %lld related pairs\n",
              panel.tickers.size(), (long long)panel.prices.dim(0),
              (long long)relations.num_edges());
  std::printf("ingestion report: %s\n", report.Summary().c_str());

  // 2. Train on everything except the final 20 days.
  market::WindowDataset dataset(panel.prices, /*window=*/10,
                                /*num_features=*/4);
  const int64_t boundary = dataset.last_day() - 20;
  market::DatasetSplit split = SplitByDay(dataset, boundary);
  core::RtGcnConfig cfg;
  cfg.strategy = core::Strategy::kTimeSensitive;
  cfg.window = 10;
  baselines::RtGcnPredictor model(relations, cfg, /*alpha=*/0.1f, /*seed=*/7);
  harness::TrainOptions opts;
  opts.epochs = epochs;
  // Crash-safe training: with --checkpoint_dir the run saves every epoch
  // and a re-run resumes from the latest checkpoint instead of restarting.
  opts.checkpoint_dir = checkpoint_dir;
  opts.resume = resume;
  // Divergence supervision: a NaN/Inf loss or gradient rolls the run back
  // to the last good state (checkpoint when available, else an in-memory
  // epoch snapshot) and halves the learning rate before continuing.
  opts.guard.policy = harness::GuardPolicy::kRollback;
  model.Fit(dataset, split.train_days, opts);
  std::printf("trained %lld epochs in %.1fs\n", (long long)opts.epochs,
              model.fit_stats().train_seconds);
  for (const auto& event : model.fit_stats().guard_events) {
    std::printf("guard intervention: %s\n", event.ToString().c_str());
  }

  // 3. Checkpoint and reload into a fresh model.
  const std::string ckpt = "/tmp/rtgcn_demo.ckpt";
  nn::SaveParameters(model.model(), ckpt).Abort();
  baselines::RtGcnPredictor restored(relations, cfg, 0.1f, /*seed=*/999);
  nn::LoadParameters(restored.mutable_model(), ckpt).Abort();

  // 4. Verify equivalence and print today's ranking.
  const int64_t today = dataset.last_day();
  Tensor original_scores = model.Predict(dataset, today);
  Tensor restored_scores = restored.Predict(dataset, today);
  std::printf("checkpoint round-trip exact: %s\n",
              AllClose(original_scores, restored_scores, 0, 0) ? "yes" : "NO");

  std::printf("\ntop-5 ranking for the next trading day:\n");
  for (int64_t i : rank::TopK(restored_scores, 5)) {
    std::printf("  %-6s score %+.4f\n", panel.tickers[i].c_str(),
                restored_scores.data()[i]);
  }
  return 0;
}
