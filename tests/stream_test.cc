// Tests for the streaming market subsystem (src/stream/):
//
//  * TickSource — seeded determinism, close anchoring to the batch
//    simulator, churn and relation dynamics;
//  * WindowDataset::AppendDay — a streamed dataset's features, full and
//    gathered, bit-identical to a WindowDataset built from the whole panel
//    after every day, at every thread count (tests/stream_checker.h);
//  * RollingPipeline — retrain → checkpoint → hot-reload round trips, the
//    churn-consistency guarantee on Rank replies, SERVING health under
//    concurrent query load, and the e2e streaming-vs-batch-oracle MRR
//    comparison through flash crash + universe churn.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/rtgcn_predictor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "harness/checkpoint.h"
#include "market/dataset.h"
#include "market/relation_generator.h"
#include "market/simulator.h"
#include "market/universe.h"
#include "rank/metrics.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "stream/pipeline.h"
#include "stream/tick_source.h"
#include "stream_checker.h"
#include "temp_dir.h"

namespace rtgcn::stream {
namespace {

using graph::RelationTensor;

// ---------------------------------------------------------------------------
// Fixture: a small universe with industry + wiki relations.
// ---------------------------------------------------------------------------

struct Market {
  market::StockUniverse universe;
  market::RelationData relations;
};

Market MakeMarket(int64_t num_stocks = 16, int64_t num_industries = 3,
                  uint64_t seed = 11) {
  Market m;
  Rng rng(seed);
  m.universe = market::StockUniverse::Generate(num_stocks, num_industries,
                                               &rng);
  market::RelationConfig rc;
  rc.num_wiki_types = 2;
  rc.wiki_links_per_stock = 1.0;
  m.relations = market::GenerateRelations(m.universe, rc, &rng);
  return m;
}

/// Half-lives: industry types never decay, wiki types decay fast.
std::vector<double> WikiHalfLives(const market::RelationData& rel,
                                  double half_life) {
  std::vector<double> hl(
      static_cast<size_t>(rel.relations.num_relation_types()), 0.0);
  for (int64_t t = rel.num_industry_types;
       t < rel.num_industry_types + rel.num_wiki_types; ++t) {
    hl[static_cast<size_t>(t)] = half_life;
  }
  return hl;
}

StreamConfig EventfulConfig(const market::RelationData& rel) {
  StreamConfig cfg;
  cfg.sim.num_days = 400;
  cfg.sim.seed = 5;
  cfg.flash_crash_day = 12;
  cfg.flash_crash_duration = 2;
  cfg.initial_active = 13;
  cfg.ipo_probability = 0.3;
  cfg.delist_probability = 0.3;
  cfg.min_active = 6;
  cfg.churn_start_day = 2;
  cfg.edge_appear_per_day = 1.5;
  cfg.type_half_life = WikiHalfLives(rel, 4.0);
  cfg.seed = 23;
  return cfg;
}

// ---------------------------------------------------------------------------
// TickSource
// ---------------------------------------------------------------------------

TEST(TickSourceTest, DeterministicGivenSeed) {
  Market m = MakeMarket();
  const StreamConfig cfg = EventfulConfig(m.relations);
  TickSource a(m.universe, m.relations, cfg);
  TickSource b(m.universe, m.relations, cfg);
  ASSERT_EQ(a.day0_close(), b.day0_close());
  for (int day = 1; day <= 30; ++day) {
    const DayUpdate ua = a.NextDay();
    const DayUpdate ub = b.NextDay();
    ASSERT_EQ(ua.day, ub.day);
    ASSERT_EQ(ua.regime, ub.regime);
    ASSERT_EQ(ua.close, ub.close) << "day " << day;
    ASSERT_EQ(ua.universe_events.size(), ub.universe_events.size());
    for (size_t k = 0; k < ua.universe_events.size(); ++k) {
      EXPECT_EQ(ua.universe_events[k].slot, ub.universe_events[k].slot);
      EXPECT_EQ(ua.universe_events[k].listed, ub.universe_events[k].listed);
    }
    ASSERT_EQ(ua.relation_events.size(), ub.relation_events.size());
    for (size_t k = 0; k < ua.relation_events.size(); ++k) {
      EXPECT_EQ(ua.relation_events[k].i, ub.relation_events[k].i);
      EXPECT_EQ(ua.relation_events[k].j, ub.relation_events[k].j);
      EXPECT_EQ(ua.relation_events[k].type, ub.relation_events[k].type);
      EXPECT_EQ(ua.relation_events[k].add, ub.relation_events[k].add);
    }
  }
}

TEST(TickSourceTest, ClosesMatchBatchSimulatorPanel) {
  Market m = MakeMarket();
  StreamConfig cfg;
  cfg.sim.num_days = 40;
  cfg.sim.seed = 9;
  cfg.seed = 31;
  // No flash crash: the stream must then reproduce the batch panel
  // draw-for-draw.
  const market::SimulatedMarket batch =
      market::Simulate(m.universe, m.relations, cfg.sim);

  TickSource source(m.universe, m.relations, cfg);
  for (int day = 1; day < 40; ++day) {
    const DayUpdate du = source.NextDay();
    for (int64_t i = 0; i < source.num_slots(); ++i) {
      ASSERT_EQ(du.close[static_cast<size_t>(i)],
                batch.prices.at({day, i}))
          << "day " << day << " slot " << i;
    }
    ASSERT_EQ(du.regime, batch.regimes[static_cast<size_t>(day)]);
  }
}

TEST(TickSourceTest, ChurnTogglesActiveSlotsAndBumpsVersion) {
  Market m = MakeMarket();
  StreamConfig cfg = EventfulConfig(m.relations);
  TickSource source(m.universe, m.relations, cfg);
  EXPECT_EQ(source.num_active(), 13);
  int churn_events = 0;
  std::vector<bool> active(source.active());
  for (int day = 1; day <= 60; ++day) {
    const DayUpdate du = source.NextDay();
    for (const UniverseEvent& ue : du.universe_events) {
      // Every event is a real toggle.
      EXPECT_NE(active[static_cast<size_t>(ue.slot)], ue.listed);
      active[static_cast<size_t>(ue.slot)] = ue.listed;
      ++churn_events;
    }
    ASSERT_EQ(active, source.active()) << "day " << day;
    EXPECT_GE(source.num_active(), cfg.min_active);
  }
  EXPECT_GT(churn_events, 0) << "churn scenario never triggered";
  EXPECT_GT(source.universe_version(), 0);
}

// ---------------------------------------------------------------------------
// Streamed WindowDataset
// ---------------------------------------------------------------------------

TEST(StreamedDatasetTest, BitIdenticalToBatchAtEveryThreadCount) {
  Market m = MakeMarket();
  const StreamConfig cfg = EventfulConfig(m.relations);

  // Record one seeded stream, then replay it at every thread count — the
  // checker compares against a from-scratch WindowDataset after every day
  // with exact float equality.
  TickSource source(m.universe, m.relations, cfg);
  std::vector<DayUpdate> updates;
  for (int day = 1; day <= 25; ++day) updates.push_back(source.NextDay());

  // A sub-universe out of slot order, as a churned model version's is not.
  const std::vector<int64_t> slots = {12, 0, 7, 3, 15};
  Tensor reference;
  ForEachThreadCount([&](int threads) {
    Tensor features = ReplayAndCheckDataset(
        /*window=*/5, /*num_features=*/2, source.day0_close(), updates, slots,
        "stream replay threads=" + std::to_string(threads));
    if (threads == 1) {
      reference = features;
    } else {
      ExpectTensorsBitEqual(reference, features,
                            "features threads=" + std::to_string(threads));
    }
  });
}

TEST(StreamedDatasetTest, GatheredFeaturesMatchGatheredPanel) {
  Market m = MakeMarket();
  StreamConfig cfg = EventfulConfig(m.relations);
  TickSource source(m.universe, m.relations, cfg);

  market::WindowDataset live(
      Tensor({1, source.num_slots()}, source.day0_close()), /*window=*/5,
      /*num_features=*/2);
  for (int day = 1; day <= 15; ++day) live.AppendDay(source.NextDay().close);
  const int64_t day = live.num_days() - 1;
  ASSERT_GE(day, live.first_day());

  // Gather-then-compute == compute-then-gather: a sub-universe's features
  // from the live dataset equal a WindowDataset built on the gathered panel.
  const std::vector<int64_t> slots = {0, 3, 4, 9, 12};
  market::WindowDataset sub(live.Prices(slots), live.window(),
                            live.num_features());
  ExpectTensorsBitEqual(sub.Features(day), live.Features(day, slots),
                        "gathered features");
}

// ---------------------------------------------------------------------------
// RollingPipeline
// ---------------------------------------------------------------------------

PipelineConfig SmallPipelineConfig(const std::string& dir) {
  PipelineConfig cfg;
  cfg.model.strategy = core::Strategy::kUniform;
  cfg.model.window = 5;
  cfg.model.num_features = 2;
  cfg.model.relational_filters = 4;
  cfg.model.temporal_kernel = 3;
  cfg.model.temporal_stride = 2;
  cfg.model.dropout = 0.0f;
  cfg.train.epochs = 2;
  cfg.train.learning_rate = 5e-3f;
  cfg.train.verbose = false;
  cfg.checkpoint_dir = dir;
  cfg.retrain_every = 10;
  cfg.train_history = 20;
  cfg.seed = 3;
  return cfg;
}

TEST(RollingPipelineTest, RetrainsCheckpointsAndHotReloads) {
  Market m = MakeMarket();
  StreamConfig scfg = EventfulConfig(m.relations);
  TickSource source(m.universe, m.relations, scfg);
  const ScopedTempDir scoped_dir("stream_pipeline");
  const std::string& dir = scoped_dir.path();
  RollingPipeline pipeline(SmallPipelineConfig(dir), &source,
                           m.relations.relations);
  ASSERT_TRUE(pipeline.Init().ok());

  EXPECT_EQ(pipeline.Health(), serve::HealthState::kDegraded)
      << "no model before the first retrain";
  EXPECT_FALSE(pipeline.Rank().ok());

  std::map<int64_t, std::vector<int64_t>> slots_by_version;
  int64_t churned_replies = 0;
  for (int day = 1; day <= 35; ++day) {
    ASSERT_TRUE(pipeline.Step().ok());
    if (pipeline.retrains() == 0) continue;

    EXPECT_EQ(pipeline.Health(), serve::HealthState::kServing);
    auto reply = pipeline.Rank();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    const StreamRankReply& r = reply.ValueOrDie();
    EXPECT_EQ(r.model_version, pipeline.registry()->CurrentVersion());
    ASSERT_EQ(r.slots.size(), r.scores.size());
    ASSERT_FALSE(r.slots.empty());
    // Churn consistency: one version always answers with one slot list.
    auto [it, inserted] = slots_by_version.emplace(r.model_version, r.slots);
    if (!inserted) {
      EXPECT_EQ(it->second, r.slots) << "universe mixed";
    }
    // The stale flag tracks live churn exactly.
    EXPECT_EQ(r.stale, r.universe_version != pipeline.universe_version());
    if (r.stale) ++churned_replies;
  }
  EXPECT_GE(pipeline.retrains(), 2);
  EXPECT_GT(churned_replies, 0)
      << "scenario never exercised a churn boundary between retrains";

  // Each retrain exported one numbered serving checkpoint.
  harness::CheckpointManager manager({dir, 1, 0});
  auto epochs = manager.ListCheckpoints();
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(static_cast<int64_t>(epochs.ValueOrDie().size()),
            pipeline.retrains());
}

TEST(RollingPipelineTest, VersionsAboveLeftoverCheckpointsInServingDir) {
  Market m = MakeMarket();
  StreamConfig scfg = EventfulConfig(m.relations);
  TickSource source(m.universe, m.relations, scfg);
  const ScopedTempDir scoped_dir("stream_leftover");
  const std::string& dir = scoped_dir.path();

  // A previous run (or an unrelated producer) left a checkpoint in the
  // serving directory. The pipeline can only serve versions it trained,
  // so its own exports must outrank it — otherwise the registry keeps
  // promoting the leftover and Rank() starves forever.
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  {
    std::ofstream stale(dir + "/ckpt-00000007.rtgcn",
                        std::ios::binary | std::ios::trunc);
    stale << "not a checkpoint";
  }

  RollingPipeline pipeline(SmallPipelineConfig(dir), &source,
                           m.relations.relations);
  ASSERT_TRUE(pipeline.Init().ok());
  int day = 0;
  while (pipeline.retrains() == 0) {
    ASSERT_TRUE(pipeline.Step().ok());
    ASSERT_LT(++day, 200);
  }

  // First retrain exported version 8 (above the leftover's 7) and
  // promoted it; replies come from the version this run trained.
  EXPECT_EQ(pipeline.retrains(), 1);
  EXPECT_EQ(pipeline.registry()->CurrentVersion(), 8);
  EXPECT_EQ(pipeline.Health(), serve::HealthState::kServing);
  auto reply = pipeline.Rank();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.ValueOrDie().model_version, 8);
}

TEST(RollingPipelineTest, StaysServingUnderConcurrentLoad) {
  Market m = MakeMarket();
  StreamConfig scfg = EventfulConfig(m.relations);
  TickSource source(m.universe, m.relations, scfg);
  const ScopedTempDir scoped_dir("stream_load");
  const std::string& dir = scoped_dir.path();
  RollingPipeline pipeline(SmallPipelineConfig(dir), &source,
                           m.relations.relations);
  ASSERT_TRUE(pipeline.Init().ok());

  // Warm up to the first promoted model.
  int day = 0;
  while (pipeline.retrains() == 0) {
    ASSERT_TRUE(pipeline.Step().ok());
    ASSERT_LT(++day, 200);
  }
  ASSERT_EQ(pipeline.Health(), serve::HealthState::kServing);

  // Hammer Rank() from several threads while the stream keeps stepping
  // through churn and further retrains; every reply must be internally
  // consistent and the server must never leave SERVING.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> replies{0};
  std::atomic<int64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      std::map<int64_t, std::vector<int64_t>> seen;
      while (!stop.load(std::memory_order_relaxed)) {
        auto reply = pipeline.Rank();
        if (!reply.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const StreamRankReply& r = reply.ValueOrDie();
        if (r.slots.size() != r.scores.size() || r.slots.empty()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto [it, inserted] = seen.emplace(r.model_version, r.slots);
        if (!inserted && it->second != r.slots) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        replies.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int d = 0; d < 15; ++d) {
    ASSERT_TRUE(pipeline.Step().ok());
    EXPECT_EQ(pipeline.Health(), serve::HealthState::kServing);
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(replies.load(), 0);
  EXPECT_GE(pipeline.retrains(), 2);
}

// ---------------------------------------------------------------------------
// Stream → serve: pipeline exports served through the InferenceServer
// ---------------------------------------------------------------------------

// The server's full-universe reply must be the pipeline's own ranking,
// bit for bit: trained slots carry pipeline.Rank()'s scores, every other
// slot the rank-last sentinel.
void ExpectMatchesPipeline(const serve::RankReply& served,
                           const StreamRankReply& stream,
                           int64_t num_slots) {
  EXPECT_EQ(served.model_version, stream.model_version);
  EXPECT_EQ(served.day, stream.day);
  ASSERT_EQ(static_cast<int64_t>(served.scores.size()), num_slots);
  std::vector<float> want(static_cast<size_t>(num_slots),
                          std::numeric_limits<float>::lowest());
  for (size_t i = 0; i < stream.slots.size(); ++i) {
    want[static_cast<size_t>(stream.slots[i])] = stream.scores[i];
  }
  EXPECT_EQ(0, std::memcmp(served.scores.data(), want.data(),
                           want.size() * sizeof(float)))
      << "served scores diverge from pipeline.Rank()";
}

TEST(RollingPipelineTest, ServesThroughInferenceServerAcrossChurnAndReloads) {
  Market m = MakeMarket();
  StreamConfig scfg = EventfulConfig(m.relations);
  TickSource source(m.universe, m.relations, scfg);
  const ScopedTempDir scoped_dir("stream_serverserve");
  const std::string& dir = scoped_dir.path();
  RollingPipeline pipeline(SmallPipelineConfig(dir), &source,
                           m.relations.relations);
  ASSERT_TRUE(pipeline.Init().ok());

  int day = 0;
  while (pipeline.retrains() == 0) {
    ASSERT_TRUE(pipeline.Step().ok());
    ASSERT_LT(++day, 200);
  }

  serve::Metrics metrics;
  serve::InferenceServer server(pipeline.ServeScoreFn(), pipeline.num_slots(),
                                pipeline.registry(), {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  {
    auto stream_reply = pipeline.Rank();
    ASSERT_TRUE(stream_reply.ok()) << stream_reply.status().ToString();
    const StreamRankReply& sr = stream_reply.ValueOrDie();
    auto served = server.Rank(sr.day, {});
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectMatchesPipeline(served.ValueOrDie(), sr, pipeline.num_slots());
  }

  // Hot reload under churn: keep stepping (more retrains, universe churn)
  // while client threads hammer the server. Replies must always be
  // whole-universe and version-consistent; a query that straddles a day
  // boundary gets a clean Unavailable, never mixed data. The server's
  // accounting invariant must hold when the dust settles.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> oks{0}, errors{0}, failures{0};
  // Clients learn the live day through this atomic (reading the day
  // while Step() mutates it would race); a stale value just earns a clean
  // Unavailable from the ScoreFn's day check.
  std::atomic<int64_t> live_day{pipeline.day()};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto reply = server.Rank(live_day.load(std::memory_order_relaxed), {});
        if (!reply.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const serve::RankReply& r = reply.ValueOrDie();
        if (static_cast<int64_t>(r.scores.size()) != pipeline.num_slots() ||
            r.model_version < 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        oks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const int64_t retrains_before = pipeline.retrains();
  const int64_t universe_before = pipeline.universe_version();
  for (int d = 0; d < 25; ++d) {
    ASSERT_TRUE(pipeline.Step().ok());
    live_day.store(pipeline.day(), std::memory_order_relaxed);
    // The stream steps far faster than the clients can race it, so land
    // one guaranteed same-day query per step from this thread too.
    auto reply = server.Rank(pipeline.day(), {});
    if (reply.ok()) oks.fetch_add(1, std::memory_order_relaxed);
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(oks.load(), 0);
  EXPECT_GT(pipeline.retrains(), retrains_before)
      << "scenario never reloaded under load";
  EXPECT_GT(pipeline.universe_version(), universe_before)
      << "scenario never churned under load";

  // After the churn storm the server still agrees with the pipeline at the
  // new day under the new version.
  auto settled = pipeline.Rank();
  ASSERT_TRUE(settled.ok()) << settled.status().ToString();
  auto served = server.Rank(settled.ValueOrDie().day, {});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectMatchesPipeline(served.ValueOrDie(), settled.ValueOrDie(),
                        pipeline.num_slots());

  server.Stop();
  EXPECT_EQ(metrics.requests.Value(),
            metrics.responses_ok.Value() + metrics.responses_error.Value() +
                metrics.expired.Value() + metrics.shed.Value())
      << "accounting invariant broken under churn";
}

// ---------------------------------------------------------------------------
// E2E: streaming MRR vs a batch-refit oracle through crash + churn
// ---------------------------------------------------------------------------

// The oracle mirrors the pipeline's refit policy with plain batch
// machinery: it accumulates the official closes into a panel, applies the
// relation/universe deltas to its own tensors, and refits from scratch on
// the same cadence with the same options and seeds — no incremental state
// anywhere. Streaming MRR must match the oracle's within 1e-3 (they are in
// fact bit-identical: the streamed dataset and the export→promote→score
// round trip both preserve exact floats).
TEST(RollingPipelineTest, StreamingMrrMatchesBatchOracleThroughCrashAndChurn) {
  Market m = MakeMarket();
  StreamConfig scfg = EventfulConfig(m.relations);
  scfg.flash_crash_day = 18;
  // Two identically-seeded sources emit identical streams (asserted by
  // TickSourceTest.DeterministicGivenSeed): the pipeline drives one, the
  // oracle reads the official record from the other.
  TickSource source(m.universe, m.relations, scfg);
  TickSource oracle_source(m.universe, m.relations, scfg);
  const ScopedTempDir scoped_dir("stream_oracle");
  const std::string& dir = scoped_dir.path();
  const PipelineConfig pcfg = SmallPipelineConfig(dir);
  RollingPipeline pipeline(pcfg, &source, m.relations.relations);
  ASSERT_TRUE(pipeline.Init().ok());

  // Oracle state.
  std::vector<std::vector<float>> panel_rows = {source.day0_close()};
  RelationTensor oracle_rel = m.relations.relations;
  std::vector<bool> oracle_active(oracle_source.active());
  int64_t oracle_last_retrain = -1;
  int64_t oracle_version = 0;
  std::unique_ptr<baselines::RtGcnPredictor> oracle_model;
  std::shared_ptr<RelationTensor> oracle_model_rel;
  std::vector<int64_t> oracle_slots;

  auto oracle_panel = [&](const std::vector<int64_t>& slots) {
    Tensor panel({static_cast<int64_t>(panel_rows.size()),
                  static_cast<int64_t>(slots.size())});
    for (size_t t = 0; t < panel_rows.size(); ++t) {
      for (size_t k = 0; k < slots.size(); ++k) {
        panel.at({static_cast<int64_t>(t), static_cast<int64_t>(k)}) =
            panel_rows[t][static_cast<size_t>(slots[k])];
      }
    }
    return panel;
  };

  double stream_mrr_sum = 0, oracle_mrr_sum = 0;
  int64_t scored_days = 0;
  int64_t crash_days_scored = 0, churned_days_scored = 0;

  // Pending replies awaiting the next day's close for labels.
  struct PendingEval {
    std::vector<int64_t> slots;
    std::vector<float> scores;
  };
  std::unique_ptr<PendingEval> stream_pending, oracle_pending;

  for (int day = 1; day <= 45; ++day) {
    DayUpdate du = oracle_source.NextDay();

    // --- label + score yesterday's predictions with today's closes.
    if (stream_pending != nullptr && oracle_pending != nullptr) {
      const std::vector<float>& prev = panel_rows.back();
      auto eval = [&](const PendingEval& p) {
        Tensor scores({static_cast<int64_t>(p.scores.size())});
        Tensor labels({static_cast<int64_t>(p.scores.size())});
        for (size_t k = 0; k < p.slots.size(); ++k) {
          const auto slot = static_cast<size_t>(p.slots[k]);
          scores.at({static_cast<int64_t>(k)}) = p.scores[k];
          labels.at({static_cast<int64_t>(k)}) =
              (du.close[slot] - prev[slot]) / prev[slot];
        }
        return rank::ReciprocalRankTop1(scores, labels);
      };
      stream_mrr_sum += eval(*stream_pending);
      oracle_mrr_sum += eval(*oracle_pending);
      ++scored_days;
      if (du.regime == market::Regime::kCrash) ++crash_days_scored;
    }
    stream_pending.reset();
    oracle_pending.reset();

    // --- oracle consumes the day from the official record.
    for (const UniverseEvent& ue : du.universe_events) {
      oracle_active[static_cast<size_t>(ue.slot)] = ue.listed;
    }
    for (const RelationEvent& ev : du.relation_events) {
      if (ev.add) {
        ASSERT_TRUE(oracle_rel.AddRelation(ev.i, ev.j, ev.type).ok());
      } else {
        ASSERT_TRUE(oracle_rel.RemoveRelation(ev.i, ev.j, ev.type).ok());
      }
    }
    panel_rows.push_back(du.close);

    // --- streaming pipeline consumes the same day incrementally.
    ASSERT_TRUE(pipeline.Step().ok());

    // --- oracle refit on the pipeline's cadence (same policy, same seeds).
    const int64_t stream_day = static_cast<int64_t>(panel_rows.size()) - 1;
    const bool window_ready =
        stream_day >= pcfg.model.window - 1 +
                          market::kFeaturePeriods[pcfg.model.num_features - 1] -
                          1;
    if (window_ready && (oracle_last_retrain < 0 ||
                         day - oracle_last_retrain >= pcfg.retrain_every)) {
      std::vector<int64_t> slots;
      for (int64_t i = 0; i < source.num_slots(); ++i) {
        if (oracle_active[static_cast<size_t>(i)]) slots.push_back(i);
      }
      if (slots.size() >= 2) {
        market::WindowDataset ds(oracle_panel(slots), pcfg.model.window,
                                 pcfg.model.num_features);
        if (ds.first_day() <= ds.last_day()) {
          const std::vector<int64_t> train_days = ds.Days(
              ds.last_day() - pcfg.train_history + 1, ds.last_day());
          if (!train_days.empty()) {
            const int64_t version = oracle_version + 1;
            // Build the induced relation tensor the oracle way: filter and
            // remap from its own full tensor.
            auto sub = std::make_shared<RelationTensor>(
                static_cast<int64_t>(slots.size()),
                oracle_rel.num_relation_types());
            std::vector<int64_t> pos(
                static_cast<size_t>(source.num_slots()), -1);
            for (size_t k = 0; k < slots.size(); ++k) {
              pos[static_cast<size_t>(slots[k])] = static_cast<int64_t>(k);
            }
            for (const auto& e : oracle_rel.EdgeList()) {
              const int64_t pi = pos[static_cast<size_t>(e.i)];
              const int64_t pj = pos[static_cast<size_t>(e.j)];
              if (pi < 0 || pj < 0) continue;
              for (int32_t t : e.types) {
                ASSERT_TRUE(sub->AddRelation(pi, pj, t).ok());
              }
            }
            auto model = std::make_unique<baselines::RtGcnPredictor>(
                *sub, pcfg.model, pcfg.alpha, pcfg.seed + version,
                "rtgcn-stream");
            harness::TrainOptions train = pcfg.train;
            train.checkpoint_dir.clear();
            train.seed = pcfg.train.seed + static_cast<uint64_t>(version);
            model->Fit(ds, train_days, train);
            oracle_model = std::move(model);
            oracle_model_rel = sub;
            oracle_slots = slots;
            oracle_last_retrain = day;
            oracle_version = version;
          }
        }
      }
    }

    // --- both sides predict for tomorrow.
    if (pipeline.retrains() > 0 && oracle_model != nullptr) {
      auto reply = pipeline.Rank();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      StreamRankReply r = reply.MoveValueOrDie();
      if (r.stale) ++churned_days_scored;
      stream_pending = std::make_unique<PendingEval>();
      stream_pending->slots = std::move(r.slots);
      stream_pending->scores = std::move(r.scores);

      market::WindowDataset ds(oracle_panel(oracle_slots), pcfg.model.window,
                               pcfg.model.num_features);
      const Tensor scores = oracle_model->Score(ds.Features(ds.num_days() - 1));
      oracle_pending = std::make_unique<PendingEval>();
      oracle_pending->slots = oracle_slots;
      oracle_pending->scores.assign(scores.data(),
                                    scores.data() + scores.numel());
    }
  }

  ASSERT_GT(scored_days, 10);
  EXPECT_GT(crash_days_scored, 0) << "flash crash never covered";
  EXPECT_GT(oracle_source.universe_version(), 0) << "universe never churned";
  const double stream_mrr = stream_mrr_sum / static_cast<double>(scored_days);
  const double oracle_mrr = oracle_mrr_sum / static_cast<double>(scored_days);
  EXPECT_NEAR(stream_mrr, oracle_mrr, 1e-3)
      << "streaming ranking quality diverged from the batch refit oracle";
  (void)churned_days_scored;
}

}  // namespace
}  // namespace rtgcn::stream
