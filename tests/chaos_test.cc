// Chaos and overload-safety suite for the serving stack (DESIGN.md §13):
//
//  * ChaosInjector fault plans are deterministic in the seed;
//  * AdmissionController: reject-fast capacity and drain semantics;
//  * a deadline runs from the request's arrival and sheds it with a
//    distinct DeadlineExceeded status — a same-day request waiting on a
//    held in-flight forward at its deadline, and wire lines that outlived
//    their DEADLINE in the front end's executor queue;
//  * serve.latency_us runs from arrival, so it includes that queue wait;
//  * a line answered from the cache is deadline-checked and timed from its
//    arrival like any other;
//  * forwards for different days run concurrently: no lock makes one
//    day's leader wait for another day's forward;
//  * a full server sheds instead of queueing without bound;
//  * Stop() completes admitted requests and answers later ones with
//    "draining";
//  * DEGRADED health (unpublished model, repeated reload failures) serves
//    cached scores flagged STALE instead of erroring;
//  * the end-to-end chaos scenario over the epoll front end: concurrent
//    retrying clients, a fault injector corrupting replies, hostile raw
//    clients (unframed lines, bad ids, bad verbs),
//    and a corrupt checkpoint published mid-reload — the server must not
//    crash or hang, and every request must be accounted for:
//      requests == responses_ok + responses_error + expired + shed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "harness/checkpoint.h"
#include "harness/gradient_predictor.h"
#include "market/dataset.h"
#include "nn/linear.h"
#include "serve/admission.h"
#include "serve/async_server.h"
#include "serve/chaos.h"
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

using std::chrono::steady_clock;

std::unique_ptr<LinearRanker> TrainAndExport(
    const market::WindowDataset& data, const std::string& dir, int64_t epoch,
    uint64_t seed) {
  auto model = std::make_unique<LinearRanker>(2, seed);
  harness::TrainOptions opts;
  opts.epochs = 1;
  opts.learning_rate = 1e-2f;
  opts.seed = seed;
  model->Fit(data, data.Days(data.first_day(), 60), opts);
  harness::CheckpointManager manager({dir, 1, 0});
  EXPECT_TRUE(manager.Init().ok());
  EXPECT_TRUE(model->ExportSnapshot(manager.CheckpointPath(epoch)).ok());
  return model;
}

void WriteCorruptCheckpoint(const std::string& dir, int64_t epoch) {
  harness::CheckpointManager manager({dir, 1, 0});
  ASSERT_TRUE(manager.Init().ok());
  std::ofstream out(manager.CheckpointPath(epoch), std::ios::binary);
  out << "this is not a checkpoint";
}

uint64_t AccountedRequests(const Metrics& m) {
  return m.responses_ok.Value() + m.responses_error.Value() +
         m.expired.Value() + m.shed.Value();
}

// ---------------------------------------------------------------------------
// ChaosInjector determinism.
// ---------------------------------------------------------------------------

std::vector<ChaosInjector::ReplyPlan> DrawPlans(uint64_t seed, int n) {
  ChaosInjector::Options opts;
  opts.seed = seed;
  opts.delay_prob = 0.2;
  opts.drop_prob = 0.2;
  opts.truncate_prob = 0.2;
  opts.reset_prob = 0.2;
  ChaosInjector chaos(opts);
  std::vector<ChaosInjector::ReplyPlan> plans;
  plans.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) plans.push_back(chaos.PlanReply(64));
  EXPECT_EQ(chaos.plans(), static_cast<uint64_t>(n));
  EXPECT_EQ(chaos.faults(),
            chaos.delays() + chaos.drops() + chaos.truncates() + chaos.resets());
  return plans;
}

TEST(ChaosInjectorTest, SameSeedSamePlanSequence) {
  const auto a = DrawPlans(42, 300);
  const auto b = DrawPlans(42, 300);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fault, b[i].fault) << "draw " << i;
    EXPECT_EQ(a[i].delay_ms, b[i].delay_ms) << "draw " << i;
    EXPECT_EQ(a[i].truncate_at, b[i].truncate_at) << "draw " << i;
  }
  // With 40% fault-free probability per draw, 300 draws from a different
  // seed diverge with overwhelming probability.
  const auto c = DrawPlans(43, 300);
  bool differs = false;
  for (size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].fault != c[i].fault || a[i].delay_ms != c[i].delay_ms;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosInjectorTest, ZeroProbabilitiesNeverFault) {
  ChaosInjector chaos({/*seed=*/7});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(chaos.PlanReply(64).fault, ChaosInjector::ReplyFault::kNone);
  }
  EXPECT_EQ(chaos.faults(), 0u);
}

// ---------------------------------------------------------------------------
// AdmissionController.
// ---------------------------------------------------------------------------

TEST(AdmissionControllerTest, RejectFastCapsInUse) {
  AdmissionController gate({/*capacity=*/2, "widgets"});
  EXPECT_TRUE(gate.Admit().ok());
  EXPECT_TRUE(gate.Admit().ok());
  EXPECT_EQ(gate.in_use(), 2);

  const Status full = gate.Admit();
  EXPECT_EQ(full.code(), StatusCode::kUnavailable);
  EXPECT_NE(full.ToString().find("widgets"), std::string::npos);

  gate.Release();
  EXPECT_TRUE(gate.Admit().ok());
}

TEST(AdmissionControllerTest, DrainFailsWaitersAndLaterAdmits) {
  AdmissionController gate({/*capacity=*/4, "slots"});
  ASSERT_TRUE(gate.Admit().ok());
  gate.CloseForDrain();
  EXPECT_TRUE(gate.draining());
  for (int i = 0; i < 3; ++i) {
    const Status later = gate.Admit();
    EXPECT_EQ(later.code(), StatusCode::kUnavailable);
    EXPECT_NE(later.ToString().find("draining"), std::string::npos);
  }
  EXPECT_EQ(gate.in_use(), 1);  // a held slot stays valid

  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    gate.WaitIdle();
    idle = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(idle.load());
  gate.Release();
  waiter.join();
  EXPECT_TRUE(idle.load());

  gate.Reopen();
  EXPECT_TRUE(gate.Admit().ok());
}

// ---------------------------------------------------------------------------
// Server-level overload behaviour.
// ---------------------------------------------------------------------------

struct Stack {
  market::WindowDataset data = MakePanel();
  Metrics metrics;
  ScopedTempDir scoped_dir;
  const std::string& dir = scoped_dir.path();
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<InferenceServer> server;

  Stack(const std::string& name, InferenceServer::Options sopts,
        int64_t reload_interval_ms = 0)
      : scoped_dir("chaos_" + name) {
    TrainAndExport(data, dir, /*epoch=*/1, /*seed=*/61);
    registry = std::make_unique<ModelRegistry>(
        ModelRegistry::Options{dir, reload_interval_ms}, MakeFactory(),
        &metrics);
    EXPECT_TRUE(registry->Start().ok());
    server = std::make_unique<InferenceServer>(&data, registry.get(), sopts,
                                               &metrics);
    EXPECT_TRUE(server->Start().ok());
  }
  ~Stack() {
    server->Stop();
    registry->Stop();
  }
};

// A server over HeldScoreFn: every forward blocks until the test releases
// it, so a forward stays in flight exactly as long as a test needs.
struct HeldStack {
  static constexpr int64_t kStocks = 10;
  Metrics metrics;
  HeldScoreFn held{kStocks};
  ScopedTempDir dir;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<InferenceServer> server;

  HeldStack(const std::string& name, InferenceServer::Options sopts = {})
      : dir("chaos_" + name) {
    ExportUntrained(dir.path(), /*epoch=*/1);
    registry = std::make_unique<ModelRegistry>(
        ModelRegistry::Options{dir.path(), /*reload_interval_ms=*/0},
        MakeFactory(), &metrics);
    EXPECT_TRUE(registry->Start().ok());
    server = std::make_unique<InferenceServer>(held.fn(), kStocks,
                                               registry.get(), sopts,
                                               &metrics);
    EXPECT_TRUE(server->Start().ok());
  }
  ~HeldStack() {
    held.Release();
    server->Stop();
    registry->Stop();
  }

  // Waits until `n` requests are admitted, plus a margin for them to
  // reach the in-flight entry.
  void WaitInFlight(int n) {
    const std::string want = " queue=" + std::to_string(n);
    while (server->HealthLine().find(want) == std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
};

// In-process callers compute their absolute deadline from now().
RequestOptions Within(int64_t ms) {
  return RequestOptions{steady_clock::now() + std::chrono::milliseconds(ms)};
}

int64_t MillisSince(steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             steady_clock::now() - start)
      .count();
}

TEST(OverloadTest, SameDayJoinerShedsAtItsDeadline) {
  HeldStack stack("deadline_join");
  constexpr int64_t kDay = 30;
  std::thread leader([&] { EXPECT_TRUE(stack.server->Rank(kDay).ok()); });
  stack.held.WaitEntered(1);
  const auto start = steady_clock::now();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stack.held.Release();
  });

  auto result = stack.server->Score(kDay, 3, Within(5));
  const int64_t waited = MillisSince(start);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // Shed at the 5ms deadline, long before the 200ms forward ends.
  EXPECT_LT(waited, 150);
  releaser.join();
  leader.join();
  EXPECT_EQ(stack.metrics.expired.Value(), 1u);
  EXPECT_EQ(stack.metrics.forwards.Value(), 1u);
  EXPECT_EQ(stack.metrics.requests.Value(), AccountedRequests(stack.metrics));

  // A generous deadline does not perturb a normal reply.
  auto ok = stack.server->Score(kDay, 3, Within(10000));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok.ValueOrDie().stale);
}

TEST(OverloadTest, DifferentDayLeadersForwardConcurrently) {
  HeldStack stack("concurrent_leaders");
  std::thread day30([&] { EXPECT_TRUE(stack.server->Rank(30).ok()); });
  stack.held.WaitEntered(1);
  // Day 31 leads its own forward while day 30's is still held: it enters
  // the ScoreFn without waiting for day 30 to finish.
  std::thread day31([&] {
    auto r = stack.server->Rank(31);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().scores, StubScores(31, HeldStack::kStocks));
  });
  EXPECT_TRUE(stack.held.WaitEnteredFor(2, std::chrono::seconds(5)));
  EXPECT_EQ(stack.held.entered(), 2);
  stack.held.Release();
  day31.join();
  day30.join();
  EXPECT_EQ(stack.metrics.forwards.Value(), 2u);
  EXPECT_EQ(stack.metrics.requests.Value(), AccountedRequests(stack.metrics));
}

TEST(OverloadTest, WireDeadlineRunsFromArrivalThroughTheExecutorQueue) {
  HeldStack stack("deadline_arrival");
  AsyncServer::Options aopts;
  aopts.executor_threads = 1;
  AsyncServer front(stack.server.get(), &stack.metrics, aopts);
  ASSERT_TRUE(front.Start().ok());
  constexpr int kConns = 4;
  constexpr int kLinesPerConn = 2;
  constexpr int64_t kDeadlineMs = 20;
  constexpr int64_t kHoldMs = 150;
  std::vector<std::unique_ptr<RawClient>> conns;
  for (int c = 0; c < kConns; ++c) {
    conns.push_back(std::make_unique<RawClient>(front.port()));
    ASSERT_TRUE(conns.back()->connected());
  }
  // Every line ranks its own day, so no line is answered from the cache
  // or joins another's forward.
  std::vector<std::vector<steady_clock::time_point>> sent(kConns);
  auto send = [&](int c, int i) {
    const int64_t day = 30 + c * kLinesPerConn + i;
    sent[c].push_back(steady_clock::now());
    ASSERT_TRUE(conns[c]->Send("2 " + std::to_string(i + 1) + " RANK " +
                               std::to_string(day) + " 3 DEADLINE " +
                               std::to_string(kDeadlineMs) + "\n"));
  };
  // Connection 0's first line leads a held forward on the only executor.
  send(0, 0);
  stack.held.WaitEntered(1);
  const auto held_at = steady_clock::now();
  for (int c = 0; c < kConns; ++c) {
    for (int i = (c == 0 ? 1 : 0); i < kLinesPerConn; ++i) send(c, i);
  }
  // Seven lines are waiting, but the executor queue holds at most one per
  // connection (the others wait on their connection), so max_connections
  // bounds it.
  while (front.queued_lines() < kConns - 1 &&
         MillisSince(held_at) < kHoldMs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(front.queued_lines(), kConns - 1);
  EXPECT_LE(front.queued_lines(), front.active_connections());
  std::this_thread::sleep_for(
      std::chrono::milliseconds(kHoldMs - MillisSince(held_at)));
  stack.held.Release();

  int ok = 0, expired = 0;
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kLinesPerConn; ++i) {
      const std::string reply = conns[c]->ReadLine();
      const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                              steady_clock::now() - sent[c][i])
                              .count();
      const std::string frame = "2 " + std::to_string(i + 1) + " ";
      ASSERT_EQ(reply.rfind(frame, 0), 0u) << reply;
      if (reply.rfind(frame + "OK ", 0) == 0) {
        ++ok;
        // Queueing never eats more than the deadline: an OK reply comes at
        // most one held forward after it.
        EXPECT_LE(waited, kDeadlineMs + kHoldMs + 50) << reply;
      } else {
        ++expired;
        EXPECT_EQ(reply.rfind(frame + "ERR deadline exceeded", 0), 0u)
            << reply;
      }
    }
  }
  front.Stop();
  // The leader's forward started in time and ran to completion; every
  // line queued behind it outlived its deadline.
  EXPECT_GE(ok, 1);
  EXPECT_GT(expired, 0);
  EXPECT_EQ(stack.metrics.expired.Value(), static_cast<uint64_t>(expired));
  EXPECT_EQ(stack.metrics.requests.Value(), AccountedRequests(stack.metrics));
}

// serve.latency_us runs from a line's arrival (metrics.h), so a cold line
// queued for the only executor behind a held forward records that wait.
// The two samples then sum to at least the first line's hold plus the
// second line's queue wait; a clock started at execution misses the wait.
TEST(OverloadTest, WireLatencyCountsTheExecutorQueueWait) {
  HeldStack stack("latency_arrival");
  AsyncServer::Options aopts;
  aopts.executor_threads = 1;
  AsyncServer front(stack.server.get(), &stack.metrics, aopts);
  ASSERT_TRUE(front.Start().ok());
  constexpr int64_t kHoldMs = 100;
  RawClient first(front.port()), second(front.port());
  ASSERT_TRUE(first.connected() && second.connected());
  ASSERT_TRUE(first.Send("2 1 RANK 30 3\n"));
  stack.held.WaitEntered(1);
  const auto first_held = steady_clock::now();
  ASSERT_TRUE(second.Send("2 2 RANK 31 3\n"));
  while (front.queued_lines() < 1 && MillisSince(first_held) < 2000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(front.queued_lines(), 1);
  const auto second_queued = steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(kHoldMs));
  const auto released = steady_clock::now();
  stack.held.Release();
  EXPECT_EQ(first.ReadLine().rfind("2 1 OK ", 0), 0u);
  EXPECT_EQ(second.ReadLine().rfind("2 2 OK ", 0), 0u);
  front.Stop();

  const auto us = [](steady_clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
  };
  const uint64_t held_us = us(released - first_held);
  const uint64_t queued_us = us(released - second_queued);
  ASSERT_EQ(stack.metrics.latency.Count(), 2u);
  EXPECT_GE(stack.metrics.latency.Sum(), held_us + queued_us)
      << "first line held " << held_us << " us, second queued " << queued_us;
}

// A line answered from the cache runs the same request path as one that
// waits: pipelined behind its connection's line that leads a held forward,
// a cached line whose DEADLINE passed meanwhile expires instead of being
// answered OK, and a cached line's latency sample runs from its arrival.
TEST(OverloadTest, WireDeadlineAndLatencyBindLinesAnsweredFromTheCache) {
  HeldStack stack("deadline_cached");
  AsyncServer front(stack.server.get(), &stack.metrics, {});
  ASSERT_TRUE(front.Start().ok());
  constexpr int64_t kHoldMs = 60;
  RawClient conn(front.port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Send("2 1 SCORE 30 0\n"));
  stack.held.WaitEntered(1);
  ASSERT_TRUE(conn.Send("2 2 SCORE 30 1 DEADLINE 5\n2 3 SCORE 30 2\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(kHoldMs));
  stack.held.Release();
  EXPECT_EQ(conn.ReadLine().rfind("2 1 OK ", 0), 0u);
  const std::string expired = conn.ReadLine();
  EXPECT_EQ(expired.rfind("2 2 ERR deadline exceeded", 0), 0u) << expired;
  EXPECT_EQ(conn.ReadLine().rfind("2 3 OK ", 0), 0u);
  front.Stop();

  EXPECT_EQ(stack.metrics.forwards.Value(), 1u);
  EXPECT_EQ(stack.metrics.cache_hits.Value(), 1u);
  EXPECT_EQ(stack.metrics.expired.Value(), 1u);
  EXPECT_EQ(stack.metrics.requests.Value(), 3u);
  EXPECT_EQ(stack.metrics.requests.Value(), AccountedRequests(stack.metrics));
  // Lines 1 and 3 record one sample each (an expired line records none),
  // and each waited out the hold: line 3 was queued behind line 1 from the
  // moment it arrived, not from its cache lookup.
  const obs::Histogram& latency = stack.metrics.latency;
  ASSERT_EQ(latency.Count(), 2u);
  uint64_t held_samples = 0;
  for (int b = 0; b < latency.num_buckets(); ++b) {
    if (latency.BucketLowerBound(b) >= kHoldMs * 1000 / 2) {
      held_samples += latency.BucketCount(b);
    }
  }
  EXPECT_EQ(held_samples, 2u);
}

TEST(OverloadTest, FullServerShedsRejectFast) {
  InferenceServer::Options sopts;
  sopts.max_queue = 1;
  HeldStack stack("full", sopts);

  std::thread first([&] {
    auto r = stack.server->Score(30, 1);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  // The first request holds the only slot while its forward is held.
  stack.held.WaitEntered(1);
  const auto start = steady_clock::now();
  auto shed = stack.server->Score(30, 2);
  const int64_t waited = MillisSince(start);
  stack.held.Release();
  first.join();

  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_LT(waited, 50);  // reject-fast, no parking
  EXPECT_EQ(stack.metrics.shed.Value(), 1u);
  EXPECT_EQ(stack.metrics.requests.Value(), AccountedRequests(stack.metrics));
}

TEST(OverloadTest, StopCompletesInFlightRequestsAndRejectsNewOnes) {
  HeldStack stack("drain");
  constexpr int kInFlight = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kInFlight; ++i) {
    threads.emplace_back([&, i] {
      if (stack.server->Score(30, i % 5).ok()) ++ok_count;
    });
  }
  stack.WaitInFlight(kInFlight);
  std::thread stopper([&] { stack.server->Stop(); });
  // While the drain waits for the held forward, arrivals get "draining".
  while (stack.server->Health() != HealthState::kDraining) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto during = stack.server->Score(30, 1);
  ASSERT_FALSE(during.ok());
  EXPECT_NE(during.status().ToString().find("draining"), std::string::npos);
  EXPECT_EQ(stack.metrics.responses_ok.Value(), 0u);

  stack.held.Release();
  stopper.join();
  // Stop() returned only after every admitted request had answered.
  EXPECT_EQ(stack.metrics.responses_ok.Value(),
            static_cast<uint64_t>(kInFlight));
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kInFlight);

  auto after = stack.server->Score(30, 1);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(after.status().ToString().find("draining"), std::string::npos);
  EXPECT_EQ(stack.metrics.shed.Value(), 2u);
  EXPECT_EQ(stack.metrics.requests.Value(), AccountedRequests(stack.metrics));
}

// ---------------------------------------------------------------------------
// Graceful degradation: DEGRADED health and STALE serving.
// ---------------------------------------------------------------------------

TEST(DegradedTest, UnpublishedModelServesCachedScoresAsStale) {
  Stack stack("unpublish", {});
  const int64_t day = stack.data.first_day();

  auto fresh = stack.server->Score(day, 3);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh.ValueOrDie().stale);
  EXPECT_EQ(stack.server->Health(), HealthState::kServing);

  // Operator pulls the model (no poller: reload_interval_ms is 0, so it
  // stays down). Health flips DEGRADED; the day we served before comes
  // back from the stale cache, a day we never served errors.
  stack.registry->Unpublish();
  EXPECT_EQ(stack.server->Health(), HealthState::kDegraded);

  auto stale = stack.server->Score(day, 3);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale.ValueOrDie().stale);
  EXPECT_EQ(stale.ValueOrDie().score, fresh.ValueOrDie().score);
  EXPECT_GE(stack.metrics.stale_served.Value(), 1);

  auto missing = stack.server->Score(day + 1, 3);
  EXPECT_FALSE(missing.ok());

  EXPECT_NE(stack.server->HealthLine().find("DEGRADED"), std::string::npos);
  EXPECT_EQ(stack.metrics.requests.Value(), AccountedRequests(stack.metrics));
}

TEST(DegradedTest, ReloadFailuresFlipDegradedAndRecoverOnPromotion) {
  InferenceServer::Options sopts;
  sopts.degraded_failure_threshold = 3;
  Stack stack("reloadfail", sopts);
  const int64_t day = stack.data.first_day();

  WriteCorruptCheckpoint(stack.dir, /*epoch=*/2);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(stack.registry->PollOnce());
  }
  EXPECT_GE(stack.registry->consecutive_reload_failures(), 3);
  EXPECT_EQ(stack.server->Health(), HealthState::kDegraded);

  // The old snapshot still serves, but replies are flagged stale: a newer
  // model exists that we cannot load.
  auto degraded = stack.server->Score(day, 3);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded.ValueOrDie().stale);

  // A loadable checkpoint recovers the registry and the health state.
  TrainAndExport(stack.data, stack.dir, /*epoch=*/3, /*seed=*/62);
  EXPECT_TRUE(stack.registry->PollOnce());
  EXPECT_EQ(stack.registry->consecutive_reload_failures(), 0);
  EXPECT_EQ(stack.server->Health(), HealthState::kServing);
  auto recovered = stack.server->Score(day, 3);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.ValueOrDie().stale);
  EXPECT_EQ(recovered.ValueOrDie().model_version, 3);
}

// ---------------------------------------------------------------------------
// Wire-level drain.
// ---------------------------------------------------------------------------

TEST(DrainWireTest, StoppedServerAnswersDraining) {
  Stack stack("drainwire", {});
  AsyncServer front(stack.server.get(), &stack.metrics, {});
  ASSERT_TRUE(front.Start().ok());

  stack.server->Stop();

  RawClient raw(front.port());
  ASSERT_TRUE(raw.connected());
  ASSERT_TRUE(raw.Send("2 1 SCORE " +
                       std::to_string(stack.data.first_day()) + " 1\n"));
  EXPECT_EQ(raw.ReadLine(), "2 1 DRAINING");
  ASSERT_TRUE(raw.Send("2 2 HEALTH\n"));
  const std::string health = raw.ReadLine();
  EXPECT_EQ(health.rfind("2 2 OK DRAINING", 0), 0u) << health;
  front.Stop();
}

// ---------------------------------------------------------------------------
// The end-to-end chaos scenario.
// ---------------------------------------------------------------------------

TEST(ChaosScenarioTest, ServerSurvivesChaosAndAccountsForEveryRequest) {
  market::WindowDataset data = MakePanel();
  const ScopedTempDir scoped_dir("chaos_scenario");
  const std::string& dir = scoped_dir.path();
  auto model = TrainAndExport(data, dir, /*epoch=*/1, /*seed=*/61);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/5}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());

  // One ServerConfig drives both layers, exactly as serve_server and
  // bench_serve wire it.
  ServerConfig cfg;
  cfg.max_queue = 64;
  cfg.max_line_bytes = 4096;
  ASSERT_TRUE(cfg.Validate().ok());
  InferenceServer server(&data, &registry, cfg.server_options(), &metrics);
  ASSERT_TRUE(server.Start().ok());

  ChaosInjector::Options copts;
  copts.seed = 1234;
  copts.delay_prob = 0.10;
  copts.drop_prob = 0.05;
  copts.truncate_prob = 0.05;
  copts.reset_prob = 0.05;
  copts.delay_ms_max = 5;
  ChaosInjector chaos(copts);

  AsyncServer front(&server, &metrics, cfg.async_options());
  front.SetChaos(&chaos);
  ASSERT_TRUE(front.Start().ok());

  // Load: retrying clients issuing SCORE/RANK, some with deadlines.
  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<int> client_ok{0}, client_err{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client::Options copts2;
      copts2.port = front.port();
      copts2.recv_timeout_ms = 500;
      copts2.max_attempts = 5;
      copts2.backoff_initial_ms = 2;
      copts2.backoff_max_ms = 20;
      copts2.seed = 100 + static_cast<uint64_t>(c);
      Client client(copts2, &metrics);
      for (int i = 0; i < kPerClient; ++i) {
        const int64_t day = data.first_day() + (i % 3);
        const int64_t deadline = (i % 7 == 0) ? 1000 : 0;
        bool ok;
        if (i % 2 == 0) {
          ok = client.Score(day, i % data.num_stocks(), deadline).ok();
        } else {
          ok = client.Rank(day, 3, deadline).ok();
        }
        (ok ? client_ok : client_err)++;
      }
    });
  }

  // Abuse: hostile clients hammering the same server.
  std::thread abuser([&] {
    for (int i = 0; i < 12; ++i) {
      RawClient raw(front.port());
      if (!raw.connected()) continue;
      switch (i % 6) {
        case 0:  // binary garbage
          raw.Send("\x00\x01\xfe garbage\n");
          raw.ReadLine(200);
          break;
        case 1:  // oversized line
          raw.Send(std::string(8192, 'A') + "\n");
          raw.ReadLine(200);
          break;
        case 2:  // half-open, then vanish
          raw.Send("2 1 PING\n");
          raw.CloseSend();
          raw.ReadLine(200);
          break;
        case 3:  // request, then RST without reading the reply
          raw.Send("2 1 RANK " + std::to_string(data.first_day()) + " 5\n");
          raw.Reset();
          break;
        case 4:  // framing abuse: bad ids, bad verbs, unframed lines
          raw.Send("2 notanid PING\nPING\nSCORE " +
                   std::to_string(data.first_day()) +
                   " 1\n2 1 FLY\n2 2\n");
          raw.ReadLine(200);
          break;
        case 5:  // a flood of pipelined requests, then vanish
          raw.Send("2 1 RANK " + std::to_string(data.first_day()) +
                   " 3\n2 2 SCORE " + std::to_string(data.first_day()) +
                   " 1\n2 3 HEALTH\n");
          raw.Reset();
          break;
      }
    }
  });

  // Mid-run reload chaos: a corrupt checkpoint the live poller keeps
  // tripping over, then a good one that must eventually be promoted.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  WriteCorruptCheckpoint(dir, /*epoch=*/2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    harness::CheckpointManager manager({dir, 1, 0});
    ASSERT_TRUE(manager.Init().ok());
    ASSERT_TRUE(model->ExportSnapshot(manager.CheckpointPath(3)).ok());
  }

  for (auto& t : threads) t.join();
  abuser.join();

  // No crash, no hang — and the server is still answering cleanly. The
  // injector stays installed, so the probe bounds its reads like the load
  // clients do: a dropped reply costs one 500 ms retry, not the default
  // 5 s receive timeout.
  {
    Client::Options copts2;
    copts2.port = front.port();
    copts2.recv_timeout_ms = 500;
    copts2.max_attempts = 5;
    Client probe(copts2);
    auto health = probe.Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    auto sane = probe.Score(data.first_day(), 1);
    ASSERT_TRUE(sane.ok()) << sane.status().ToString();
  }

  front.Stop();
  server.Stop();
  registry.Stop();

  // The accounting invariant: every request that reached the server
  // ended in exactly one terminal counter.
  EXPECT_EQ(metrics.requests.Value(), AccountedRequests(metrics));
  EXPECT_GE(metrics.requests.Value(), kClients * kPerClient);
  // The injector actually did something.
  EXPECT_GT(chaos.plans(), 0u);
  EXPECT_GT(chaos.faults(), 0u);
  // And the client layer absorbed the faults by retrying.
  EXPECT_GT(metrics.client_retries.Value(), 0);
  EXPECT_EQ(client_ok.load() + client_err.load(), kClients * kPerClient);
  // Dropped/truncated/reset replies force retries, so most calls succeed.
  EXPECT_GT(client_ok.load(), 0);
}

}  // namespace
}  // namespace rtgcn::serve
