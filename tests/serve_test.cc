// Tests for the inference serving subsystem (src/serve/):
//
//  * metrics counters and fixed-bucket histograms;
//  * snapshot load/score parity with the training-side forward pass;
//  * registry promotion order and corrupt-checkpoint skipping;
//  * serving equivalence — served scores are bit-identical to a direct
//    Predict at every pool size and client-thread count (the serving
//    analogue of parallel_equivalence_test.cc);
//  * single-flight coalescing — concurrent same-day requests share one
//    forward, with or without the completed-entry cache;
//  * concurrent forwards — eight threads score eight distinct days on one
//    RT-GCN (T) or RT-GAT snapshot, directly and through Rank with the
//    cache off, bit-identical to serial forwards at pool sizes 1 and 8;
//  * SCOREN accounting — a bad stock is one error, never an OK;
//  * hot reload under load — concurrent clients never see a failed query
//    or a response that does not match exactly one published version;
//  * reply parsing rejects malformed RANK/SCOREN entries;
//  * the line protocol end-to-end over a real TCP connection to the epoll
//    AsyncServer, serve::Client replies bit-exact against the in-process
//    server, unframed lines, and protocol abuse;
//  * serve::ServerConfig flag registration/validation round-trips.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "baselines/rtgat.h"
#include "baselines/rtgcn_predictor.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "harness/checkpoint.h"
#include "harness/gradient_predictor.h"
#include "market/dataset.h"
#include "market/market.h"
#include "nn/linear.h"
#include "serve/async_server.h"
#include "serve/client.h"
#include "serve/config.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "raw_client.h"
#include "serve_fixture.h"
#include "temp_dir.h"

namespace rtgcn::serve {
namespace {

// Trains a LinearRanker for `epochs` on the panel and exports its weights
// as checkpoint `epoch` in `dir`; returns the trained predictor so tests
// can compute expected scores directly.
std::unique_ptr<LinearRanker> TrainAndExport(
    const market::WindowDataset& data, const std::string& dir, int64_t epoch,
    int64_t epochs, uint64_t seed) {
  auto model = std::make_unique<LinearRanker>(2, seed);
  harness::TrainOptions opts;
  opts.epochs = epochs;
  opts.learning_rate = 1e-2f;
  opts.seed = seed;
  model->Fit(data, data.Days(data.first_day(), 60), opts);
  harness::CheckpointManager manager({dir, 1, 0});
  EXPECT_TRUE(manager.Init().ok());
  EXPECT_TRUE(model->ExportSnapshot(manager.CheckpointPath(epoch)).ok());
  return model;
}

std::vector<float> ToVector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// obs_test covers obs::Histogram itself; this checks the bucket layouts
// serve::Metrics registers and the STATS rendering of them.
TEST(MetricsTest, HistogramsUseTheServingBucketLayouts) {
  Metrics metrics;
  for (uint64_t us = 1; us <= 1000; ++us) metrics.latency.Record(us);
  EXPECT_EQ(metrics.latency.Count(), 1000u);
  EXPECT_EQ(metrics.latency.num_buckets(), Metrics::kLatencyBuckets);
  // Power-of-two buckets: each percentile lands within its bucket's range.
  const double p50 = metrics.latency.Percentile(0.50);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
  const double p99 = metrics.latency.Percentile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
}

TEST(MetricsTest, DumpTextContainsAllSections) {
  Metrics metrics;
  metrics.requests.Increment(3);
  metrics.responses_ok.Increment(3);
  metrics.latency.Record(100);
  const std::string text = metrics.DumpText();
  for (const char* key :
       {"serve.requests 3", "serve.responses_ok 3", "serve.latency_us.p50",
        "serve.latency_us.p99", "serve.qps",
        "serve.cache_hit_rate", "serve.reload_success"}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing " << key
                                                 << " in:\n" << text;
  }
}

// ---------------------------------------------------------------------------
// Snapshot + registry
// ---------------------------------------------------------------------------

TEST(ModelSnapshotTest, ScoresMatchTrainingSideForwardBitIdentically) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_snapshot");
  const std::string& dir = scoped_dir.path();
  auto trained = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/3, 9);

  harness::CheckpointManager manager({dir, 1, 0});
  auto snap = ModelSnapshot::Load(MakeFactory(), manager.CheckpointPath(1), 1);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const auto& snapshot = snap.ValueOrDie();
  EXPECT_EQ(snapshot->version(), 1);
  EXPECT_GT(snapshot->num_parameters(), 0);

  for (int64_t day : {data.first_day(), data.first_day() + 7}) {
    const Tensor direct = trained->Predict(data, day);
    const Tensor served = snapshot->Score(data.Features(day));
    ASSERT_EQ(direct.numel(), served.numel());
    EXPECT_EQ(std::memcmp(direct.data(), served.data(),
                          sizeof(float) * static_cast<size_t>(direct.numel())),
              0);
  }
}

TEST(ModelRegistryTest, PromotesNewestAndOnlyNewer) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_registry");
  const std::string& dir = scoped_dir.path();
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 11);
  TrainAndExport(data, dir, /*epoch=*/2, /*epochs=*/2, 12);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  EXPECT_EQ(registry.CurrentVersion(), 2);
  EXPECT_EQ(metrics.reload_success.Value(), 1u);
  // Nothing newer: a second poll is a no-op.
  EXPECT_FALSE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 2);
  // A newer checkpoint is picked up.
  TrainAndExport(data, dir, /*epoch=*/3, /*epochs=*/3, 13);
  EXPECT_TRUE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 3);
  EXPECT_EQ(metrics.reload_success.Value(), 2u);
  EXPECT_EQ(metrics.reload_failure.Value(), 0u);
  registry.Stop();
}

TEST(ModelRegistryTest, StartWithoutCheckpointsReportsNotFound) {
  const ScopedTempDir scoped_dir("serve_registry_empty");
  const std::string& dir = scoped_dir.path();
  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  const Status status = registry.Start();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Current(), nullptr);
  registry.Stop();
}

// ---------------------------------------------------------------------------
// Registry promotion across universe-size changes
// ---------------------------------------------------------------------------

// A ranker whose parameters are sized by the stock universe (a per-stock
// bias), so a checkpoint from a differently-sized universe has mismatched
// parameter shapes — the streaming-retrain hazard when consecutive
// snapshots disagree on universe size.
class BiasModule : public nn::Module {
 public:
  BiasModule(int64_t num_stocks, Rng* rng) {
    Tensor init({num_stocks});
    for (int64_t i = 0; i < num_stocks; ++i) {
      init.at({i}) = static_cast<float>(rng->Gaussian(0, 0.1));
    }
    bias = RegisterParameter("bias", std::move(init));
  }
  ag::VarPtr bias;
};

class UniverseRanker : public harness::GradientPredictor {
 public:
  explicit UniverseRanker(int64_t num_stocks, uint64_t seed = 1)
      : rng_(seed), module_(num_stocks, &rng_) {}

  std::string name() const override { return "UniverseRanker"; }

 protected:
  nn::Module* module() override { return &module_; }
  ag::VarPtr Forward(const Tensor& features, Rng*) override {
    const int64_t t_len = features.dim(0);
    const int64_t n = features.dim(1);
    const int64_t d = features.dim(2);
    auto x = ag::Constant(features);
    auto last = ag::Reshape(ag::SliceOp(x, 0, t_len - 1, t_len), {n, d});
    return ag::Add(ag::Mean(last, 1), module_.bias);
  }
  float alpha() const override { return 0.0f; }

 private:
  Rng rng_;
  BiasModule module_;
};

std::unique_ptr<UniverseRanker> FitUniverseRanker(
    const market::WindowDataset& data, int64_t num_stocks, uint64_t seed) {
  auto model = std::make_unique<UniverseRanker>(num_stocks, seed);
  harness::TrainOptions opts;
  opts.epochs = 2;
  opts.learning_rate = 1e-2f;
  opts.seed = seed;
  model->Fit(data, data.Days(data.first_day(), 60), opts);
  return model;
}

TEST(ModelRegistryTest, RejectsUniverseSizeMismatchAndSwapsAtomically) {
  const ScopedTempDir scoped_dir("serve_registry_universe");
  const std::string& dir = scoped_dir.path();
  market::WindowDataset data10 = MakePanel(90, 10);
  market::WindowDataset data6 = MakePanel(90, 6);
  const Tensor f10 = data10.Features(data10.last_day());

  harness::CheckpointManager manager({dir, 1, 0});
  ASSERT_TRUE(manager.Init().ok());

  // v1: trained on the 10-stock universe the serving factory is built for.
  auto m1 = FitUniverseRanker(data10, 10, 3);
  ASSERT_TRUE(m1->ExportSnapshot(manager.CheckpointPath(1)).ok());

  Metrics metrics;
  ModelRegistry registry(
      {dir, /*reload_interval_ms=*/0},
      [] { return WrapPredictor(std::make_unique<UniverseRanker>(10)); },
      &metrics);
  ASSERT_TRUE(registry.Start().ok());
  ASSERT_EQ(registry.CurrentVersion(), 1);
  const std::vector<float> expected_v1 = ToVector(m1->Score(f10));
  EXPECT_EQ(ToVector(registry.Current()->Score(f10)), expected_v1);

  // v2: a refit on a churned 6-stock universe. Its per-stock parameters no
  // longer match the factory's architecture — promotion must REJECT the
  // checkpoint and keep serving v1 unchanged; it must never publish a
  // snapshot that would emit 6 scores for 10-stock queries.
  auto m2 = FitUniverseRanker(data6, 6, 4);
  ASSERT_TRUE(m2->ExportSnapshot(manager.CheckpointPath(2)).ok());
  EXPECT_FALSE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 1);
  EXPECT_GE(registry.consecutive_reload_failures(), 1);
  EXPECT_GE(metrics.reload_failure.Value(), 1u);
  EXPECT_EQ(ToVector(registry.Current()->Score(f10)), expected_v1)
      << "served scores changed after a rejected promotion";

  // v3: compatible again. The swap is atomic: a snapshot pinned before the
  // poll keeps serving v1's exact scores while new queries get v3's — at no
  // point can one reply mix the two universes.
  auto m3 = FitUniverseRanker(data10, 10, 5);
  ASSERT_TRUE(m3->ExportSnapshot(manager.CheckpointPath(3)).ok());
  const std::shared_ptr<const ModelSnapshot> pinned = registry.Current();
  EXPECT_TRUE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 3);
  EXPECT_EQ(registry.consecutive_reload_failures(), 0);
  EXPECT_EQ(ToVector(pinned->Score(f10)), expected_v1);
  EXPECT_EQ(ToVector(registry.Current()->Score(f10)),
            ToVector(m3->Score(f10)));
  registry.Stop();
}

// ---------------------------------------------------------------------------
// Serving equivalence: served scores == direct Predict.
// ---------------------------------------------------------------------------

TEST(InferenceServerTest, ServedScoresBitIdenticalToDirectPredict) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_equivalence");
  const std::string& dir = scoped_dir.path();
  auto trained = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/4, 21);

  const std::vector<int64_t> days = data.Days(data.first_day(), 80);
  std::map<int64_t, std::vector<float>> expected;
  for (int64_t day : days) expected[day] = ToVector(trained->Predict(data, day));

  const int saved_threads = NumThreads();
  for (const int pool_threads : {1, 4}) {
    SetNumThreads(pool_threads);
    for (const int num_clients : {1, 8}) {
      Metrics metrics;
      ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                             &metrics);
      ASSERT_TRUE(registry.Start().ok());
      InferenceServer server(&data, &registry, {}, &metrics);
      ASSERT_TRUE(server.Start().ok());

      std::atomic<int> mismatches{0};
      std::atomic<int> failures{0};
      std::vector<std::thread> clients;
      for (int c = 0; c < num_clients; ++c) {
        clients.emplace_back([&, c] {
          for (size_t q = 0; q < days.size(); ++q) {
            const int64_t day =
                days[(q + static_cast<size_t>(c) * 3) % days.size()];
            auto reply = server.Rank(day);
            if (!reply.ok()) {
              failures.fetch_add(1);
              continue;
            }
            const auto& scores = reply.ValueOrDie().scores;
            const auto& want = expected.at(day);
            if (scores.size() != want.size() ||
                std::memcmp(scores.data(), want.data(),
                            sizeof(float) * want.size()) != 0) {
              mismatches.fetch_add(1);
            }
          }
        });
      }
      for (auto& t : clients) t.join();
      server.Stop();
      registry.Stop();
      EXPECT_EQ(failures.load(), 0)
          << "pool=" << pool_threads << " clients=" << num_clients;
      EXPECT_EQ(mismatches.load(), 0)
          << "pool=" << pool_threads << " clients=" << num_clients;
    }
  }
  SetNumThreads(saved_threads);
}

// ---------------------------------------------------------------------------
// Concurrent forwards: distinct days on one snapshot, no lock, same bits.
// ---------------------------------------------------------------------------

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(ConcurrentForwardTest, DistinctDaysOnOneSnapshotMatchSerialForwards) {
  market::MarketSpec spec = market::NasdaqSpec();
  spec.num_stocks = 80;  // several thread-pool chunks per graph op
  spec.num_industries = 6;
  spec.num_wiki_types = 2;
  spec.train_days = 60;
  spec.test_days = 20;
  market::MarketData market = market::BuildMarket(spec);
  const market::WindowDataset data = market.MakeDataset(15, 4);
  const graph::RelationTensor& rel = market.relations.relations;
  using MakePredictor =
      std::function<std::unique_ptr<harness::GradientPredictor>()>;
  const std::vector<std::pair<std::string, MakePredictor>> models = {
      {"RT-GCN (T)",
       [&] {
         core::RtGcnConfig cfg;
         cfg.strategy = core::Strategy::kTimeSensitive;
         return std::make_unique<baselines::RtGcnPredictor>(rel, cfg, 0.1f, 5);
       }},
      {"RT-GAT",
       [&] {
         return std::make_unique<baselines::RtGatPredictor>(rel, 4, 16, 0.1f,
                                                            5);
       }},
  };
  constexpr int kThreads = 8;
  std::vector<int64_t> days;
  for (int i = 0; i < kThreads; ++i) days.push_back(data.last_day() - i);

  const int saved_threads = NumThreads();
  for (size_t m = 0; m < models.size(); ++m) {
    const auto& [name, make] = models[m];
    const ScopedTempDir scoped_dir("serve_concurrent_" + std::to_string(m));
    const std::string& dir = scoped_dir.path();
    harness::CheckpointManager manager({dir, 1, 0});
    ASSERT_TRUE(manager.Init().ok());
    ASSERT_TRUE(make()->ExportSnapshot(manager.CheckpointPath(1)).ok());
    Metrics metrics;
    ModelRegistry registry({dir, /*reload_interval_ms=*/0},
                           [&make] { return WrapPredictor(make()); },
                           &metrics);
    ASSERT_TRUE(registry.Start().ok());
    const std::shared_ptr<const ModelSnapshot> snapshot = registry.Current();

    SetNumThreads(1);
    std::map<int64_t, std::vector<float>> serial;
    for (const int64_t day : days) {
      serial[day] = ToVector(snapshot->Score(data.Features(day)));
    }

    InferenceServer::Options sopts;
    sopts.enable_cache = false;  // every Rank runs its own forward
    InferenceServer server(&data, &registry, sopts, &metrics);
    ASSERT_TRUE(server.Start().ok());
    for (const int pool : {1, 8}) {
      SetNumThreads(pool);
      for (const bool via_rank : {false, true}) {
        std::vector<std::vector<float>> got(kThreads);
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int i = 0; i < kThreads; ++i) {
          threads.emplace_back([&, i] {
            // Start together so the forwards overlap.
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            if (via_rank) {
              auto reply = server.Rank(days[i]);
              if (reply.ok()) got[i] = reply.ValueOrDie().scores;
            } else {
              got[i] = ToVector(snapshot->Score(data.Features(days[i])));
            }
          });
        }
        for (auto& t : threads) t.join();
        for (int i = 0; i < kThreads; ++i) {
          EXPECT_TRUE(SameBits(got[i], serial[days[i]]))
              << name << " pool=" << pool
              << (via_rank ? " Rank" : " ModelSnapshot::Score")
              << " day=" << days[i];
        }
      }
    }
    EXPECT_EQ(metrics.forwards.Value(), 2u * kThreads);
    server.Stop();
    registry.Stop();
  }
  SetNumThreads(saved_threads);
}

// Eight concurrent same-day Rank calls while the forward is held: one
// leads the forward, seven join it. Exactly one forward and one cache
// miss, no cache hit for the joiners, and eight bit-identical replies —
// with the completed-entry cache on or off.
TEST(InferenceServerTest, SameDayRequestsJoinOneInFlightForward) {
  const ScopedTempDir scoped_dir("serve_coalesce");
  const std::string& dir = scoped_dir.path();
  ExportUntrained(dir, /*epoch=*/1);
  constexpr int64_t kStocks = 12;
  constexpr int kRequests = 8;
  constexpr int64_t kDay = 40;
  for (const bool enable_cache : {true, false}) {
    Metrics metrics;
    ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                           &metrics);
    ASSERT_TRUE(registry.Start().ok());
    HeldScoreFn held(kStocks);
    InferenceServer::Options opts;
    opts.enable_cache = enable_cache;
    InferenceServer server(held.fn(), kStocks, &registry, opts, &metrics);
    ASSERT_TRUE(server.Start().ok());

    std::vector<Result<RankReply>> replies(kRequests,
                                           Status::Internal("unset"));
    std::vector<std::thread> threads;
    for (int i = 0; i < kRequests; ++i) {
      threads.emplace_back([&, i] { replies[i] = server.Rank(kDay); });
    }
    held.WaitEntered(1);
    // Every request admitted, then a margin for the joiners to reach the
    // in-flight entry.
    while (server.HealthLine().find(" queue=8") == std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    held.Release();
    for (auto& t : threads) t.join();
    server.Stop();
    registry.Stop();

    const std::string config = enable_cache ? "cache on" : "cache off";
    EXPECT_EQ(held.entered(), 1) << config;
    EXPECT_EQ(metrics.forwards.Value(), 1u) << config;
    EXPECT_EQ(metrics.cache_misses.Value(), 1u) << config;
    EXPECT_EQ(metrics.cache_hits.Value(), 0u) << config;
    EXPECT_EQ(metrics.responses_ok.Value(), static_cast<uint64_t>(kRequests))
        << config;
    const std::vector<float> want = StubScores(kDay, kStocks);
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(replies[i].ok()) << config << ": "
                                   << replies[i].status().ToString();
      const RankReply& r = replies[i].ValueOrDie();
      EXPECT_EQ(r.model_version, 1) << config;
      ASSERT_EQ(r.scores.size(), want.size()) << config;
      EXPECT_EQ(std::memcmp(r.scores.data(), want.data(),
                            sizeof(float) * want.size()),
                0)
          << config << " reply " << i;
    }
  }
}

TEST(InferenceServerTest, CacheCoalescesRepeatQueriesIntoOneForward) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_cache");
  const std::string& dir = scoped_dir.path();
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 31);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  const int64_t day = data.first_day();
  for (int i = 0; i < 20; ++i) {
    auto reply = server.Score(day, i % data.num_stocks());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.ValueOrDie().num_stocks, data.num_stocks());
  }
  EXPECT_EQ(metrics.forwards.Value(), 1u);
  EXPECT_GT(metrics.cache_hits.Value(), 0u);
  EXPECT_EQ(metrics.responses_ok.Value(), 20u);

  // Ranks are a permutation consistent with the scores.
  auto rank_reply = server.Rank(day);
  ASSERT_TRUE(rank_reply.ok());
  const auto& scores = rank_reply.ValueOrDie().scores;
  auto best = server.Score(day, 0);
  ASSERT_TRUE(best.ok());
  float max_score = scores[0];
  for (float s : scores) max_score = std::max(max_score, s);
  for (int64_t i = 0; i < data.num_stocks(); ++i) {
    auto r = server.Score(day, i);
    ASSERT_TRUE(r.ok());
    if (r.ValueOrDie().rank == 0) {
      EXPECT_EQ(r.ValueOrDie().score, max_score);
    }
  }
  server.Stop();
  registry.Stop();
}

TEST(InferenceServerTest, InvalidDayFailsThatQueryOnly) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_invalid");
  const std::string& dir = scoped_dir.path();
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 41);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_FALSE(server.Rank(data.last_day() + 100).ok());
  EXPECT_FALSE(server.Score(data.first_day(), -1).ok());
  EXPECT_FALSE(server.Score(data.first_day(), data.num_stocks()).ok());
  EXPECT_TRUE(server.Rank(data.first_day()).ok());
  EXPECT_EQ(metrics.responses_error.Value(), 3u);
  // Only the valid day ran a forward: a rejected day is no cache miss.
  EXPECT_EQ(metrics.cache_misses.Value(), 1u);
  EXPECT_EQ(metrics.forwards.Value(), 1u);
  server.Stop();
  registry.Stop();
}

// A SCOREN line with a stock out of range is one request answered ERR:
// it counts as an error (never an OK), and runs no forward.
TEST(InferenceServerTest, ScoreBatchWithBadStockCountsOneErrorAndNoForward) {
  const ScopedTempDir scoped_dir("serve_scoren");
  const std::string& dir = scoped_dir.path();
  ExportUntrained(dir, /*epoch=*/1);
  constexpr int64_t kStocks = 10;
  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  HeldScoreFn stub(kStocks);
  stub.Release();
  InferenceServer server(stub.fn(), kStocks, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  const std::string bad = ExecuteLine(&server, &metrics,
                                      "2 1 SCOREN 40 2 0 " +
                                          std::to_string(kStocks));
  EXPECT_EQ(bad.rfind("2 1 ERR ", 0), 0u) << bad;
  EXPECT_EQ(metrics.requests.Value(), 1u);
  EXPECT_EQ(metrics.responses_error.Value(), 1u);
  EXPECT_EQ(metrics.responses_ok.Value(), 0u);
  EXPECT_EQ(stub.entered(), 0);

  // A valid line answers every stock from the day's one ranking.
  const std::string good =
      ExecuteLine(&server, &metrics, "2 2 SCOREN 40 2 0 9");
  ASSERT_EQ(good.rfind("2 2 OK 1 2 ", 0), 0u) << good;
  auto ranked = server.Rank(40);
  ASSERT_TRUE(ranked.ok());
  const std::vector<RankEntry> order = TopK(ranked.ValueOrDie().scores,
                                            kStocks);
  std::vector<int64_t> rank_of(static_cast<size_t>(kStocks));
  for (size_t r = 0; r < order.size(); ++r) {
    rank_of[static_cast<size_t>(order[r].stock)] = static_cast<int64_t>(r);
  }
  auto parsed = ParseReply(good, ParseRequest("2 2 SCOREN 40 2 0 9")
                                     .ValueOrDie());
  ASSERT_TRUE(parsed.ok()) << good;
  EXPECT_EQ(parsed.ValueOrDie().batch[0].rank, rank_of[0]);
  EXPECT_EQ(parsed.ValueOrDie().batch[1].rank, rank_of[9]);
  EXPECT_EQ(stub.entered(), 1);
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(), 3u);
  EXPECT_EQ(metrics.responses_ok.Value(), 2u);
  EXPECT_EQ(metrics.responses_error.Value(), 1u);
}

TEST(InferenceServerTest, DayPastTheCacheKeyRangeNeverAliasesACachedDay) {
  // The (version, day) cache key packs the day into its low 20 bits, so
  // under version 1 the day first_day + 2^20 packs to first_day's key. It
  // must fail as an invalid day on every path, not answer from that entry.
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_alias");
  const std::string& dir = scoped_dir.path();
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 43);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Rank(data.first_day()).ok());  // caches (1, first_day)

  const int64_t alias = data.first_day() + (int64_t{1} << 20);
  ScoreReply score;
  EXPECT_FALSE(server.TryScoreCached(alias, 0, &score));
  RankReply rank;
  EXPECT_FALSE(server.TryRankCached(alias, &rank));
  EXPECT_FALSE(server.Rank(alias).ok());
  EXPECT_FALSE(server.Score(alias, 0).ok());
  const std::string wire = ExecuteLine(
      &server, &metrics, "2 1 SCORE " + std::to_string(alias) + " 0");
  EXPECT_EQ(wire.rfind("2 1 ERR ", 0), 0u) << wire;
  server.Stop();
  registry.Stop();
}

// A forward pinned to version 1 that finishes after version 2's forward for
// the same day must not replace version 2's scores as the stale fallback:
// with no snapshot published, Rank(day) answers from version 2.
TEST(InferenceServerTest, StaleFallbackKeepsTheNewestVersionsScores) {
  const ScopedTempDir scoped_dir("serve_stale_newest");
  const std::string& dir = scoped_dir.path();
  ExportUntrained(dir, /*epoch=*/1);
  constexpr int64_t kStocks = 8;
  constexpr int64_t kDay = 40;
  // Version-1 forwards park until released; later versions return at once.
  std::mutex mu;
  std::condition_variable cv;
  bool v1_entered = false;
  bool v1_released = false;
  InferenceServer::ScoreFn fn =
      [&](const ModelSnapshot& snap,
          int64_t day) -> Result<std::vector<float>> {
    if (snap.version() == 1) {
      std::unique_lock<std::mutex> lock(mu);
      v1_entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return v1_released; });
    }
    return StubScores(day + snap.version(), kStocks);
  };
  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(fn, kStocks, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  Result<RankReply> old_reply = Status::Internal("unset");
  std::thread old_request([&] { old_reply = server.Rank(kDay); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return v1_entered; });
  }
  ExportUntrained(dir, /*epoch=*/2);
  const bool promoted = registry.PollOnce();
  const Result<RankReply> new_reply = server.Rank(kDay);
  {
    std::lock_guard<std::mutex> lock(mu);
    v1_released = true;
    cv.notify_all();
  }
  old_request.join();
  ASSERT_TRUE(promoted);
  ASSERT_TRUE(new_reply.ok()) << new_reply.status().ToString();
  EXPECT_EQ(new_reply.ValueOrDie().model_version, 2);
  ASSERT_TRUE(old_reply.ok()) << old_reply.status().ToString();
  EXPECT_EQ(old_reply.ValueOrDie().model_version, 1);

  registry.Unpublish();
  const Result<RankReply> stale = server.Rank(kDay);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale.ValueOrDie().stale);
  EXPECT_EQ(stale.ValueOrDie().model_version, 2);
  EXPECT_EQ(stale.ValueOrDie().scores, StubScores(kDay + 2, kStocks));
  server.Stop();
  registry.Stop();
}

// ---------------------------------------------------------------------------
// Hot reload under load (satellite): N clients hammer the server while
// checkpoints are swapped in; zero failed queries, and every response's
// scores match exactly the model version it reports.
// ---------------------------------------------------------------------------

TEST(HotReloadTest, LosslessUnderConcurrentLoad) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_hot_reload");
  const std::string& dir = scoped_dir.path();

  // Two distinct weight sets; versions alternate between them so every
  // swap changes the served scores.
  auto model_a = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 51);
  auto model_b = std::make_unique<LinearRanker>(2, 52);
  {
    harness::TrainOptions opts;
    opts.epochs = 4;
    opts.learning_rate = 1e-2f;
    opts.seed = 52;
    model_b->Fit(data, data.Days(data.first_day(), 60), opts);
  }

  const std::vector<int64_t> days = data.Days(data.first_day(), 70);
  std::map<int64_t, std::vector<float>> expected_a, expected_b;
  for (int64_t day : days) {
    expected_a[day] = ToVector(model_a->Predict(data, day));
    expected_b[day] = ToVector(model_b->Predict(data, day));
    // The two versions must be distinguishable for the check to mean
    // anything.
    ASSERT_NE(expected_a[day], expected_b[day]);
  }

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/2}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int64_t kSwaps = 12;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> version_mismatches{0};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      size_t q = static_cast<size_t>(c);
      while (!done.load(std::memory_order_acquire)) {
        const int64_t day = days[q++ % days.size()];
        auto reply = server.Rank(day);
        if (!reply.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto& r = reply.ValueOrDie();
        // Version v serves weight set A when odd, B when even.
        const auto& want =
            (r.model_version % 2 == 1) ? expected_a.at(day) : expected_b.at(day);
        const auto& other =
            (r.model_version % 2 == 1) ? expected_b.at(day) : expected_a.at(day);
        const bool matches_reported =
            r.scores.size() == want.size() &&
            std::memcmp(r.scores.data(), want.data(),
                        sizeof(float) * want.size()) == 0;
        const bool matches_other =
            r.scores.size() == other.size() &&
            std::memcmp(r.scores.data(), other.data(),
                        sizeof(float) * other.size()) == 0;
        // Exactly one published version: the reported one.
        if (!matches_reported || matches_other) {
          version_mismatches.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }

  // Publish kSwaps new versions while the clients hammer the server.
  harness::CheckpointManager manager({dir, 1, 0});
  for (int64_t epoch = 2; epoch <= 1 + kSwaps; ++epoch) {
    harness::GradientPredictor* source =
        (epoch % 2 == 1) ? static_cast<harness::GradientPredictor*>(
                               model_a.get())
                         : model_b.get();
    ASSERT_TRUE(source->ExportSnapshot(manager.CheckpointPath(epoch)).ok());
    // Wait until the poller promotes it, keeping load flowing meanwhile.
    while (registry.CurrentVersion() < epoch) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Let the clients observe the final version for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  server.Stop();
  registry.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(version_mismatches.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_GE(metrics.reload_success.Value(), static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(metrics.reload_failure.Value(), 0u);
  EXPECT_EQ(registry.CurrentVersion(), 1 + kSwaps);
}

// ---------------------------------------------------------------------------
// Reply parsing
// ---------------------------------------------------------------------------

TEST(ParseReplyTest, RejectsMalformedRankAndScoreBatchEntries) {
  auto sent = ParseRequest("2 1 RANK 5 2");
  ASSERT_TRUE(sent.ok());
  // Every entry field must parse to the end of its token.
  for (const char* line : {"2 1 OK 3 2 x:y 7:zz", "2 1 OK 3 2 0:0.5 7:zz",
                           "2 1 OK 3 2 0:0.5 7x:1", "2 1 OK 3 2 0:0.5 7:"}) {
    EXPECT_EQ(ParseReply(line, sent.ValueOrDie()).status().code(),
              StatusCode::kInternal)
        << line;
  }
  const auto good = ParseReply("2 1 OK 3 2 0:0.5 7:-1.25",
                               sent.ValueOrDie());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(good.ValueOrDie().top.size(), 2u);
  EXPECT_EQ(good.ValueOrDie().top[1].stock, 7);
  EXPECT_EQ(good.ValueOrDie().top[1].score, -1.25f);

  sent = ParseRequest("2 1 SCOREN 5 1 4");
  ASSERT_TRUE(sent.ok());
  for (const char* line : {"2 1 OK 3 1 4:nope:0", "2 1 OK 3 1 4x:0.5:0",
                           "2 1 OK 3 1 4:0.5:0x", "2 1 OK 3 1 4:0.5",
                           "2 1 OK 3 1 4:0.5:0:1"}) {
    EXPECT_EQ(ParseReply(line, sent.ValueOrDie()).status().code(),
              StatusCode::kInternal)
        << line;
  }
  const auto batch = ParseReply("2 1 OK 3 1 4:0.5:2", sent.ValueOrDie());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.ValueOrDie().batch_stocks, std::vector<int64_t>{4});
  EXPECT_EQ(batch.ValueOrDie().batch[0].score, 0.5f);
  EXPECT_EQ(batch.ValueOrDie().batch[0].rank, 2);
}

// ---------------------------------------------------------------------------
// Wire front end (AsyncServer)
// ---------------------------------------------------------------------------

class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  std::string RoundTrip(const std::string& line) {
    const std::string out = line + "\n";
    EXPECT_EQ(::write(fd_, out.data(), out.size()),
              static_cast<ssize_t>(out.size()));
    return ReadLine();
  }

  std::string ReadLine() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[512];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const size_t pos = buffer_.find('\n');
    std::string line = buffer_.substr(0, pos);
    buffer_.erase(0, pos + 1);
    return line;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

uint64_t AccountedRequests(const Metrics& m) {
  return m.responses_ok.Value() + m.responses_error.Value() +
         m.expired.Value() + m.shed.Value();
}

TEST(AsyncServerTest, LineProtocolEndToEnd) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_socket");
  const std::string& dir = scoped_dir.path();
  auto trained = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/2, 61);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());
  AsyncServer front(&server, &metrics, {});
  ASSERT_TRUE(front.Start().ok());
  ASSERT_GT(front.port(), 0);

  LineClient client(front.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.RoundTrip("2 1 PING"), "2 1 PONG");

  // SCORE returns the bit-exact forward-pass score (%.9g round-trips f32).
  const int64_t day = data.first_day();
  const Tensor direct = trained->Predict(data, day);
  const std::string reply = client.RoundTrip(
      "2 2 SCORE " + std::to_string(day) + " 3");
  ASSERT_EQ(reply.rfind("2 2 OK ", 0), 0u) << reply;
  {
    std::istringstream in(reply);
    std::string two, id, ok;
    int64_t version, rank, n;
    float score;
    in >> two >> id >> ok >> version >> score >> rank >> n;
    EXPECT_EQ(version, 1);
    EXPECT_EQ(n, data.num_stocks());
    EXPECT_EQ(score, direct.data()[3]);
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, n);
  }

  const std::string rank_reply =
      client.RoundTrip("2 3 RANK " + std::to_string(day) + " 3");
  EXPECT_EQ(rank_reply.rfind("2 3 OK 1 3 ", 0), 0u) << rank_reply;

  // STATS streams the metrics dump, terminated by END; only the first
  // line carries the frame.
  std::string stats = client.RoundTrip("2 4 STATS");
  ASSERT_EQ(stats.rfind("2 4 ", 0), 0u) << stats;
  stats.erase(0, 4);
  bool saw_requests = false;
  while (!stats.empty() && stats != "END") {
    if (stats.rfind("serve.requests", 0) == 0) saw_requests = true;
    stats = client.ReadLine();
  }
  EXPECT_EQ(stats, "END");
  EXPECT_TRUE(saw_requests);

  EXPECT_EQ(client.RoundTrip("2 5 BOGUS"), "2 5 ERR unknown command: BOGUS");
  EXPECT_EQ(client.RoundTrip("2 6 SCORE nope 1"),
            "2 6 ERR usage: SCORE <day> <stock> [DEADLINE <ms>]");
  const std::string bad_day = client.RoundTrip("2 7 SCORE 99999 0");
  EXPECT_EQ(bad_day.rfind("2 7 ERR ", 0), 0u) << bad_day;

  // HEALTH reports the state machine plus the live model version.
  const std::string health = client.RoundTrip("2 8 HEALTH");
  EXPECT_EQ(health.rfind("2 8 OK SERVING version=1", 0), 0u) << health;

  // An over-generous deadline changes nothing about the reply shape.
  const std::string deadline_ok = client.RoundTrip(
      "2 9 SCORE " + std::to_string(day) + " 3 DEADLINE 10000");
  EXPECT_EQ(deadline_ok.rfind("2 9 OK ", 0), 0u) << deadline_ok;
  // So does one too far out for the clock: it means no deadline.
  const std::string deadline_max =
      client.RoundTrip("2 12 SCORE " + std::to_string(day) +
                       " 3 DEADLINE 9223372036854775807");
  EXPECT_EQ(deadline_max.rfind("2 12 OK ", 0), 0u) << deadline_max;
  EXPECT_EQ(client.RoundTrip("2 10 SCORE 1 2 DEADLINE nope"),
            "2 10 ERR usage: SCORE <day> <stock> [DEADLINE <ms>]");
  EXPECT_EQ(client.RoundTrip("2 11 RANK 1 2 DEADLINE -5"),
            "2 11 ERR usage: RANK <day> <k> [DEADLINE <ms>]");

  front.Stop();
  server.Stop();
  registry.Stop();
}

// serve::Client over the wire against the in-process server: every verb
// goes through the one framed Call path, payloads are bit-exact, pipelined
// raw lines echo their ids, and unframed lines are answered "2 0 ERR"
// without closing the connection.
TEST(AsyncServerTest, FramedWireMatchesInProcessRank) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("serve_wire");
  const std::string& dir = scoped_dir.path();
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 61);
  Metrics metrics;
  ModelRegistry registry({dir, 0}, MakeFactory(), &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());
  AsyncServer front(&server, &metrics, {});
  ASSERT_TRUE(front.Start().ok());

  const int64_t day = data.first_day();
  auto truth = server.Rank(day);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  const std::vector<float>& scores = truth.ValueOrDie().scores;
  const std::vector<RankEntry> order =
      TopK(scores, static_cast<int64_t>(scores.size()));
  std::vector<int64_t> rank_of(scores.size());
  for (size_t r = 0; r < order.size(); ++r) {
    rank_of[static_cast<size_t>(order[r].stock)] = static_cast<int64_t>(r);
  }
  const auto bits = [](float f) {
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
  };

  Client::Options copts;
  copts.port = front.port();
  Client client(copts);

  auto score = client.Score(day, 3);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_EQ(score.ValueOrDie().model_version, 1);
  EXPECT_EQ(bits(score.ValueOrDie().score), bits(scores[3]));
  EXPECT_EQ(score.ValueOrDie().rank, rank_of[3]);
  EXPECT_EQ(score.ValueOrDie().num_stocks, data.num_stocks());

  auto rank = client.Rank(day, 5);
  ASSERT_TRUE(rank.ok()) << rank.status().ToString();
  const std::vector<RankEntry> want = TopK(scores, 5);
  ASSERT_EQ(rank.ValueOrDie().top.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rank.ValueOrDie().top[i].stock, want[i].stock);
    EXPECT_EQ(bits(rank.ValueOrDie().top[i].score), bits(want[i].score));
  }

  const std::vector<int64_t> stocks = {0, 3, 7};
  auto batch = client.ScoreBatch(day, stocks);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.ValueOrDie().size(), stocks.size());
  for (size_t i = 0; i < stocks.size(); ++i) {
    const size_t stock = static_cast<size_t>(stocks[i]);
    EXPECT_EQ(bits(batch.ValueOrDie()[i].score), bits(scores[stock]));
    EXPECT_EQ(batch.ValueOrDie()[i].rank, rank_of[stock]);
  }

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.ValueOrDie().rfind("SERVING version=1", 0), 0u)
      << health.ValueOrDie();
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The frame's first body line is kept, the END terminator is not.
  EXPECT_EQ(stats.ValueOrDie().rfind("serve.requests ", 0), 0u)
      << stats.ValueOrDie();
  EXPECT_NE(stats.ValueOrDie().find("\nserve.responses_ok "),
            std::string::npos);
  EXPECT_EQ(stats.ValueOrDie().find("END"), std::string::npos);
  // The framed STATS left the connection in step: the next call works.
  EXPECT_TRUE(client.Score(day, 3).ok());

  // Raw wire: pipelined lines echo the caller's ids; bare PING and SCORE
  // lines get "2 0 ERR" and the connection keeps working.
  {
    RawClient raw(front.port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.Send("2 77 PING\n2 9 RANK " + std::to_string(day) +
                         " 3\nPING\nSCORE " + std::to_string(day) +
                         " 3\n2 78 PING\n"));
    EXPECT_EQ(raw.ReadLine(), "2 77 PONG");
    const std::string top = raw.ReadLine();
    EXPECT_EQ(top.rfind("2 9 OK 1 3 ", 0), 0u) << top;
    const std::string frame_usage =
        "2 0 ERR malformed v2 frame (want: 2 <id> <verb> ...)";
    EXPECT_EQ(raw.ReadLine(), frame_usage);
    EXPECT_EQ(raw.ReadLine(), frame_usage);
    EXPECT_EQ(raw.ReadLine(), "2 78 PONG");
  }

  front.Stop();
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(), AccountedRequests(metrics));
}

// ---------------------------------------------------------------------------
// Protocol abuse: hostile framing must never crash, hang, or leak a
// connection slot. Uses RawClient (tests/raw_client.h) for
// half-open and reset behaviour LineClient cannot express.
// ---------------------------------------------------------------------------

struct AbuseStack {
  market::WindowDataset data = MakePanel();
  Metrics metrics;
  ScopedTempDir dir;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<InferenceServer> server;
  std::unique_ptr<AsyncServer> front;

  explicit AbuseStack(const std::string& name,
                      AsyncServer::Options fopts = {})
      : dir("serve_" + name) {
    TrainAndExport(data, dir.path(), /*epoch=*/1, /*epochs=*/1, 7);
    registry = std::make_unique<ModelRegistry>(
        ModelRegistry::Options{dir.path(), /*reload_interval_ms=*/0},
        MakeFactory(), &metrics);
    EXPECT_TRUE(registry->Start().ok());
    server = std::make_unique<InferenceServer>(&data, registry.get(),
                                               InferenceServer::Options{},
                                               &metrics);
    EXPECT_TRUE(server->Start().ok());
    front = std::make_unique<AsyncServer>(server.get(), &metrics, fopts);
    EXPECT_TRUE(front->Start().ok());
  }
  ~AbuseStack() {
    front->Stop();
    server->Stop();
    registry->Stop();
  }
};

TEST(AsyncServerAbuseTest, MalformedAndBinaryFramesGetErrNotCrash) {
  AbuseStack stack("abuse_binary");
  LineClient client(stack.front->port());
  ASSERT_TRUE(client.connected());

  // Binary garbage with an eventual newline is an unframed line.
  std::string frame("\x01\x02\xff\xfe garbage", 12);
  EXPECT_EQ(client.RoundTrip(frame).rfind("2 0 ERR ", 0), 0u);
  // Empty lines and whitespace-only lines get the frame usage too.
  EXPECT_EQ(client.RoundTrip("").rfind("2 0 ERR ", 0), 0u);
  EXPECT_EQ(client.RoundTrip("   ").rfind("2 0 ERR ", 0), 0u);
  // An id that does not parse as a whole number is not echoed.
  EXPECT_EQ(client.RoundTrip("2 notanid PING").rfind("2 0 ERR ", 0), 0u);
  EXPECT_EQ(client.RoundTrip("2 12abc PING").rfind("2 0 ERR ", 0), 0u);
  EXPECT_EQ(client.RoundTrip("2 -1 PING").rfind("2 0 ERR ", 0), 0u);
  // A framed line with garbage after the id echoes the id.
  EXPECT_EQ(client.RoundTrip("2 5 \x01\xff").rfind("2 5 ERR unknown", 0), 0u);
  // The connection is still usable afterwards.
  EXPECT_EQ(client.RoundTrip("2 1 PING"), "2 1 PONG");
}

TEST(AsyncServerAbuseTest, OversizedLineIsRejectedAndDisconnected) {
  AsyncServer::Options fopts;
  fopts.max_line_bytes = 128;
  AbuseStack stack("abuse_oversized", fopts);

  // A request line far beyond max_line_bytes is rejected whether or not
  // its terminator has arrived: it never runs as a command, and the peer
  // is disconnected.
  const std::string huge(4096, 'A');
  uint64_t rejected = 0;
  for (const std::string& bytes : {huge + "\n", huge}) {
    RawClient raw(stack.front->port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.Send(bytes));
    EXPECT_EQ(raw.ReadLine(2000), "ERR line too long")
        << "terminated=" << (bytes.back() == '\n');
    // A closed connection never answers; an open one would say PONG.
    raw.Send("2 1 PING\n");
    EXPECT_EQ(raw.ReadLine(500), "")
        << "terminated=" << (bytes.back() == '\n');
    EXPECT_EQ(stack.metrics.oversized_lines.Value(), ++rejected);
  }

  // A fresh connection still works: the abuse cost one connection, not
  // the server.
  LineClient again(stack.front->port());
  ASSERT_TRUE(again.connected());
  EXPECT_EQ(again.RoundTrip("2 1 PING"), "2 1 PONG");
}

TEST(AsyncServerAbuseTest, ConnectionCapAnswersBusyAndReapsSlots) {
  AsyncServer::Options fopts;
  fopts.max_connections = 2;
  AbuseStack stack("abuse_cap", fopts);

  auto a = std::make_unique<LineClient>(stack.front->port());
  auto b = std::make_unique<LineClient>(stack.front->port());
  ASSERT_TRUE(a->connected());
  ASSERT_TRUE(b->connected());
  EXPECT_EQ(a->RoundTrip("2 1 PING"), "2 1 PONG");
  EXPECT_EQ(b->RoundTrip("2 1 PING"), "2 1 PONG");

  // Third connection is over the cap: BUSY + close, counted in metrics.
  LineClient c(stack.front->port());
  ASSERT_TRUE(c.connected());
  EXPECT_EQ(c.ReadLine(), "BUSY too many connections");
  EXPECT_EQ(c.ReadLine(), "");
  EXPECT_GE(stack.metrics.busy_rejected.Value(), 1);

  // Releasing a connection frees its slot, so a new client gets in.
  a.reset();
  for (int i = 0; i < 200 && stack.front->active_connections() >= 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(stack.front->active_connections(), 2);
  LineClient d(stack.front->port());
  ASSERT_TRUE(d.connected());
  EXPECT_EQ(d.RoundTrip("2 1 PING"), "2 1 PONG");
}

TEST(AsyncServerAbuseTest, HalfOpenAndQuitlessDisconnectsDoNotWedge) {
  AbuseStack stack("abuse_halfopen");

  // Half-open: client shuts its write side without QUIT. The server sees
  // EOF, closes, and releases the slot.
  {
    RawClient raw(stack.front->port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.Send("2 1 PING\n"));
    EXPECT_EQ(raw.ReadLine(), "2 1 PONG");
    raw.CloseSend();
    EXPECT_EQ(raw.ReadLine(), "");  // orderly close from the server
  }
  // QUIT-less hard close mid-stream, and an RST right after a request —
  // the reply write hits a dead socket. Without MSG_NOSIGNAL this
  // delivers SIGPIPE and kills the process (the regression this guards).
  for (int i = 0; i < 8; ++i) {
    RawClient raw(stack.front->port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(
        raw.Send("2 1 RANK " + std::to_string(stack.data.first_day()) +
                 " 5\n"));
    if (i % 2 == 0) {
      raw.Reset();  // RST without reading the reply
    }                // else: destructor's plain close without QUIT
  }
  // The server is still alive and serving.
  LineClient after(stack.front->port());
  ASSERT_TRUE(after.connected());
  EXPECT_EQ(after.RoundTrip("2 1 PING"), "2 1 PONG");
  // All abused slots were reaped.
  for (int i = 0; i < 200 && stack.front->active_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(stack.front->active_connections(), 1);
}

// ---------------------------------------------------------------------------
// ServerConfig: one flag surface for every serving binary.
// ---------------------------------------------------------------------------

Status ParseArgs(FlagSet* fs, std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return fs->Parse(static_cast<int>(argv.size()), argv.data());
}

// Each of the 11 flags lands in the layer Options the stack is wired
// with; client knobs are not server flags.
TEST(ServerConfigTest, FlagsRoundTripIntoLayerOptions) {
  ServerConfig cfg;
  FlagSet fs("test");
  cfg.RegisterFlags(&fs);
  ASSERT_TRUE(ParseArgs(&fs, {"prog", "--port", "7171", "--backlog", "9",
                              "--max_connections", "11",
                              "--max_line_bytes", "513",
                              "--executor_threads", "3",
                              "--max_outbox_bytes", "4097",
                              "--max_pending_lines", "5", "--cache", "0",
                              "--cache_capacity", "7", "--max_queue", "17",
                              "--degraded_failure_threshold", "2"})
                  .ok());
  ASSERT_TRUE(cfg.Validate().ok());

  EXPECT_EQ(cfg.front.port, 7171);
  EXPECT_EQ(cfg.front.backlog, 9);
  EXPECT_EQ(cfg.front.max_connections, 11);
  EXPECT_EQ(cfg.front.max_line_bytes, 513);
  EXPECT_EQ(cfg.front.executor_threads, 3);
  EXPECT_EQ(cfg.front.max_outbox_bytes, 4097);
  EXPECT_EQ(cfg.front.max_pending_lines, 5);
  EXPECT_FALSE(cfg.server.enable_cache);
  EXPECT_EQ(cfg.server.cache_capacity, 7);
  EXPECT_EQ(cfg.server.max_queue, 17);
  EXPECT_EQ(cfg.server.degraded_failure_threshold, 2);

  for (const char* client_flag :
       {"--connect_timeout_ms", "--recv_timeout_ms",
        "--client_send_timeout_ms", "--max_attempts", "--retry_busy"}) {
    EXPECT_FALSE(ParseArgs(&fs, {"prog", client_flag, "1"}).ok())
        << client_flag;
  }
}

TEST(ServerConfigTest, RejectsBadValuesAndBounds) {
  {
    ServerConfig cfg;
    FlagSet fs("test");
    cfg.RegisterFlags(&fs);
    EXPECT_FALSE(ParseArgs(&fs, {"prog", "--max_queue", "lots"}).ok());
  }
  {
    ServerConfig cfg;
    cfg.server.max_queue = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ServerConfig cfg;
    cfg.front.executor_threads = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
}

}  // namespace
}  // namespace rtgcn::serve
