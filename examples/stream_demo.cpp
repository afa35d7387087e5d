// Streaming demo: the rolling train→checkpoint→hot-reload pipeline over a
// live daily stream (DESIGN.md §14), narrated day by day.
//
// A seeded TickSource streams a small market through universe churn (IPOs
// and delistings), decaying wiki relations and a mid-run flash crash. A
// RollingPipeline consumes it: each day's close extends its price panel,
// relation events update the pipeline's relation tensor,
// and on a rolling cadence the pipeline refits RT-GCN on the active
// sub-universe, exports a checkpoint and hot-reloads it — after which
// Rank() serves the latest day's top-k.
//
//   ./stream_demo [--stocks 24] [--days 60] [--retrain_every 10]
//                 [--train_epochs 2] [--topk 5]
//                 [--checkpoint_dir /tmp/rtgcn_stream_demo]
//
// A second TickSource with the same seed replays the event stream for the
// narration — streams are deterministic given their config, so the
// observer sees exactly the days the pipeline consumes.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "market/relation_generator.h"
#include "market/universe.h"
#include "serve/protocol.h"
#include "stream/pipeline.h"
#include "stream/tick_source.h"

int main(int argc, char** argv) {
  using namespace rtgcn;
  int64_t stocks = 24;
  int64_t days = 60;
  int64_t retrain_every = 10;
  int64_t train_epochs = 2;
  int64_t topk = 5;
  std::string checkpoint_dir = "/tmp/rtgcn_stream_demo";
  FlagSet fs("Narrated streaming demo: daily closes, universe churn and "
             "relation decay feeding a rolling train/hot-reload pipeline.");
  fs.Register("stocks", &stocks, "universe slots");
  fs.Register("days", &days, "trading days to stream");
  fs.Register("retrain_every", &retrain_every, "days between rolling refits");
  fs.Register("train_epochs", &train_epochs, "epochs per rolling refit");
  fs.Register("topk", &topk, "ranking size printed after each refit");
  fs.Register("checkpoint_dir", &checkpoint_dir,
              "serving checkpoint directory the registry watches");
  fs.ParseOrDie(argc, argv);

  // Seeded market + stream scenario: churn and wiki-edge decay throughout,
  // a flash crash halfway in.
  Rng rng(11);
  const market::StockUniverse universe =
      market::StockUniverse::Generate(stocks, /*num_industries=*/4, &rng);
  market::RelationConfig rc;
  rc.num_wiki_types = 2;
  rc.wiki_links_per_stock = 1.0;
  const market::RelationData relations =
      market::GenerateRelations(universe, rc, &rng);

  stream::StreamConfig scfg;
  scfg.sim.num_days = days + 2;
  scfg.sim.seed = 5;
  scfg.flash_crash_day = days / 2;
  scfg.flash_crash_duration = 3;
  scfg.initial_active = stocks - stocks / 6;
  scfg.ipo_probability = 0.15;
  scfg.delist_probability = 0.15;
  scfg.min_active = stocks / 2;
  scfg.churn_start_day = 2;
  scfg.edge_appear_per_day = 1.0;
  scfg.type_half_life.assign(
      static_cast<size_t>(relations.relations.num_relation_types()), 0.0);
  for (int64_t t = relations.num_industry_types;
       t < relations.relations.num_relation_types(); ++t) {
    scfg.type_half_life[static_cast<size_t>(t)] = 25.0;
  }
  scfg.seed = 23;
  stream::TickSource source(universe, relations, scfg);
  stream::TickSource observer(universe, relations, scfg);

  stream::PipelineConfig pcfg;
  pcfg.model.strategy = core::Strategy::kTimeSensitive;
  pcfg.model.window = 8;
  pcfg.model.num_features = 2;
  pcfg.model.relational_filters = 8;
  pcfg.model.temporal_stride = 2;
  pcfg.model.dropout = 0.0f;
  pcfg.train.epochs = train_epochs;
  pcfg.checkpoint_dir = checkpoint_dir;
  pcfg.retrain_every = retrain_every;
  pcfg.train_history = 2 * retrain_every;
  stream::RollingPipeline pipeline(pcfg, &source, relations.relations);
  pipeline.Init().Abort();

  std::printf("streaming %lld days over %lld slots (%lld active at open); "
              "retrain every %lld days into %s\n\n",
              static_cast<long long>(days), static_cast<long long>(stocks),
              static_cast<long long>(source.num_active()),
              static_cast<long long>(retrain_every), checkpoint_dir.c_str());

  const char* regime_names[] = {"bull", "bear", "CRASH", "recovery"};
  int64_t retrains_seen = 0;
  for (int64_t d = 0; d < days; ++d) {
    const stream::DayUpdate du = observer.NextDay();
    pipeline.Step().Abort();

    // Narrate the day's events.
    for (const auto& e : du.universe_events) {
      std::printf("day %3lld: %-6s %s\n", static_cast<long long>(du.day),
                  e.listed ? "IPO" : "delist",
                  universe.stock(e.slot).ticker.c_str());
    }
    int64_t appeared = 0, decayed = 0;
    for (const auto& e : du.relation_events) (e.add ? appeared : decayed)++;
    if (appeared + decayed > 0) {
      std::printf("day %3lld: relations %+lld appeared, -%lld decayed\n",
                  static_cast<long long>(du.day),
                  static_cast<long long>(appeared),
                  static_cast<long long>(decayed));
    }
    if (du.regime == market::Regime::kCrash) {
      std::printf("day %3lld: regime %s\n", static_cast<long long>(du.day),
                  regime_names[static_cast<int>(du.regime)]);
    }

    if (pipeline.retrains() > retrains_seen) {
      retrains_seen = pipeline.retrains();
      std::printf("day %3lld: retrain #%lld (%.2fs) -> promoted version %lld, "
                  "health %s\n",
                  static_cast<long long>(du.day),
                  static_cast<long long>(retrains_seen),
                  pipeline.last_retrain_seconds(),
                  static_cast<long long>(pipeline.registry()->CurrentVersion()),
                  pipeline.Health() == serve::HealthState::kServing
                      ? "SERVING"
                      : "DEGRADED");
      auto reply = pipeline.Rank();
      if (reply.ok()) {
        const auto& r = reply.ValueOrDie();
        std::printf("         top-%lld (model v%lld%s):",
                    static_cast<long long>(topk),
                    static_cast<long long>(r.model_version),
                    r.stale ? ", STALE universe" : "");
        // Scores are aligned with r.slots, so a TopK entry's stock is a
        // position in r.slots.
        for (const serve::RankEntry& e : serve::TopK(r.scores, topk)) {
          std::printf(" %s(%+.3f)",
                      universe.stock(r.slots[static_cast<size_t>(e.stock)])
                          .ticker.c_str(),
                      e.score);
        }
        std::printf("\n");
      }
    }
  }

  std::printf("\nstreamed %lld days: %lld retrains, universe version %lld, "
              "serving model v%lld, health %s\n",
              static_cast<long long>(days),
              static_cast<long long>(pipeline.retrains()),
              static_cast<long long>(pipeline.universe_version()),
              static_cast<long long>(pipeline.registry()->CurrentVersion()),
              pipeline.Health() == serve::HealthState::kServing ? "SERVING"
                                                                : "DEGRADED");
  return 0;
}
