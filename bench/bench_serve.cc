// Overload load generator for the serving subsystem
// (BENCH_serve_robust.json): drives the full socket stack (AsyncServer +
// serve::Client) with paced open-loop load. First a closed-loop
// calibration measures the server's capacity, then each --multipliers
// entry offers that multiple of capacity with per-request deadlines and
// no client retries, recording goodput (OK replies/sec), fast-fail
// BUSY/shed counts, and client-side latency percentiles. The run ends with
// the serving accounting invariant (requests == ok + error + expired +
// shed) — a violation fails the bench. --chaos additionally installs a
// seeded fault injector on the reply path (delays, drops, truncations,
// resets), which the invariant must survive; CI and ctest
// (bench_serve_overload_smoke) smoke this configuration.
//
//   ./bench_serve [--clients 8] [--overload_seconds 3]
//                 [--multipliers 1,2,4,10] [--deadline_ms 50]
//                 [--max_queue 256] [--chaos 0] [--chaos_seed 1234]
//                 [--json out.json]
//
// The model is trained once and exported into a fresh checkpoint
// directory under /tmp, which the run removes before exiting.
//
// Every server knob is a serve::ServerConfig flag (one shared surface —
// see serve/config.h): --cache, --max_queue, --executor_threads, ...
// The load clients build their own Client::Options (no retries), so the
// bench has no client flags.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/rtgcn_predictor.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "harness/checkpoint.h"
#include "market/market.h"
#include "serve/async_server.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/config.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace {

using namespace rtgcn;

double PercentileUs(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// One offered-load level: what we asked for, what came back, how fast.
struct OverloadPoint {
  double multiplier = 0;
  double offered_qps = 0;    ///< target request rate
  double achieved_qps = 0;   ///< requests actually issued per second
  double goodput_qps = 0;    ///< OK replies per second
  uint64_t ok = 0;
  uint64_t busy = 0;         ///< BUSY replies (shed / connection cap)
  uint64_t deadline = 0;     ///< deadline-exceeded replies + lost replies
  uint64_t error = 0;        ///< everything else
  double p50_us = 0, p95_us = 0, p99_us = 0;  ///< OK replies, client-side
};

// Offers `target_qps` across `threads` paced open-loop workers for
// `seconds`, each its own serve::Client with retries disabled — an
// overloaded server must answer (BUSY, shed, deadline) fast, not be
// flattered by client-side retry absorption.
OverloadPoint OfferLoad(int port, const std::vector<int64_t>& days,
                        int64_t num_stocks, int64_t threads,
                        double target_qps, double seconds,
                        int64_t deadline_ms) {
  OverloadPoint point;
  point.offered_qps = target_qps;
  std::atomic<uint64_t> ok{0}, busy{0}, deadline{0}, error{0}, issued{0};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int64_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      serve::Client::Options copts;
      copts.port = port;
      copts.max_attempts = 1;
      copts.retry_busy = false;
      // Bound reads well past the request deadline so a dropped reply
      // (chaos) stalls the pacer briefly, not for the default 5s.
      copts.recv_timeout_ms = std::max<int64_t>(4 * deadline_ms, 250);
      copts.seed = 7000 + static_cast<uint64_t>(w);
      serve::Client client(copts);
      auto& lat = latencies[static_cast<size_t>(w)];
      const double period_us =
          1e6 * static_cast<double>(threads) / target_qps;
      const auto end = start + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(seconds));
      for (int64_t i = 0;; ++i) {
        const auto slot =
            start + std::chrono::microseconds(static_cast<int64_t>(
                        period_us * static_cast<double>(i)));
        // Bound on wall-clock, not the schedule: under saturation the
        // schedule falls behind real time (closed-loop degeneration) and
        // would otherwise never end.
        if (slot >= end || std::chrono::steady_clock::now() >= end) break;
        std::this_thread::sleep_until(slot);
        const int64_t day =
            days[static_cast<size_t>((i / 64) %
                                     static_cast<int64_t>(days.size()))];
        const int64_t stock = (w * 131 + i) % num_stocks;
        issued.fetch_add(1, std::memory_order_relaxed);
        const auto t0 = std::chrono::steady_clock::now();
        auto result = client.Score(day, stock, deadline_ms);
        const double us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (result.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          lat.push_back(us);
        } else if (result.status().code() == StatusCode::kUnavailable) {
          busy.fetch_add(1, std::memory_order_relaxed);
        } else if (result.status().code() ==
                   StatusCode::kDeadlineExceeded) {
          deadline.fetch_add(1, std::memory_order_relaxed);
        } else {
          error.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<double> all;
  for (auto& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  point.ok = ok.load();
  point.busy = busy.load();
  point.deadline = deadline.load();
  point.error = error.load();
  point.achieved_qps = static_cast<double>(issued.load()) / elapsed;
  point.goodput_qps = static_cast<double>(point.ok) / elapsed;
  point.p50_us = PercentileUs(all, 0.50);
  point.p95_us = PercentileUs(all, 0.95);
  point.p99_us = PercentileUs(all, 0.99);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t clients = 8;
  int64_t train_epochs = 2;
  int num_threads = 0;
  std::string multipliers = "1,2,4,10";
  double overload_seconds = 3.0;
  int64_t deadline_ms = 50;
  bool chaos = false;
  int64_t chaos_seed = 1234;
  std::string json;

  // The whole serving stack configures through one ServerConfig; the bench
  // only overrides the defaults that make the measurement (cache off so
  // requests reach the forward, a small queue so overload sheds visibly).
  serve::ServerConfig scfg;
  scfg.server.enable_cache = false;
  scfg.server.max_queue = 256;

  // A small market keeps the bench fast, but the universe must be big
  // enough that the forward pass dominates per-request overhead —
  // otherwise the bench is not measuring inference.
  market::MarketSpec spec = market::NasdaqSpec(/*scale=*/0.25);
  spec.num_stocks = 60;
  spec.train_days = 120;
  spec.test_days = 40;
  core::RtGcnConfig config;

  FlagSet fs("Serving overload generator: paced open-loop load at "
             "multiples of capacity through the socket stack.");
  fs.Register("clients", &clients, "paced client threads");
  fs.Register("stocks", &spec.num_stocks, "simulated universe size");
  fs.Register("window", &config.window, "look-back window length");
  fs.Register("train_epochs", &train_epochs,
              "training epochs for the exported model");
  fs.Register("num_threads", &num_threads,
              "tensor worker threads (0 = auto)");
  fs.Register("multipliers", &multipliers,
              "comma-separated capacity multiples to offer");
  fs.Register("overload_seconds", &overload_seconds,
              "seconds per offered-load level");
  fs.Register("deadline_ms", &deadline_ms,
              "per-request DEADLINE");
  fs.Register("chaos", &chaos,
              "inject reply faults (delay/drop/truncate/reset)");
  fs.Register("chaos_seed", &chaos_seed, "fault-injector seed");
  fs.Register("json", &json, "write the results as JSON to this path");
  scfg.RegisterFlags(&fs);
  fs.ParseOrDie(argc, argv, [&scfg] { return scfg.Validate(); });
  if (num_threads >= 1) SetNumThreads(num_threads);

  const market::MarketData data = market::BuildMarket(spec);
  const market::WindowDataset dataset =
      data.MakeDataset(config.window, config.num_features);
  const std::vector<int64_t> days =
      dataset.Days(spec.test_boundary(), dataset.last_day());

  // A fresh directory per run, so concurrent runs never share checkpoints.
  char dir_template[] = "/tmp/rtgcn_bench_serve.XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("bench_serve: mkdtemp");
    return 1;
  }
  const std::string dir = dir_template;
  harness::CheckpointManager manager({dir, 1, 0});
  manager.Init().Abort();
  auto make_predictor = [&data, config] {
    return std::make_unique<baselines::RtGcnPredictor>(
        data.relations.relations, config, /*alpha=*/0.1f, /*seed=*/7);
  };
  {
    auto model = make_predictor();
    harness::TrainOptions train;
    train.epochs = train_epochs;
    model->Fit(dataset, dataset.Days(dataset.first_day(), spec.test_boundary() - 1),
               train);
    model->ExportSnapshot(manager.CheckpointPath(1)).Abort();
  }

  serve::Metrics metrics;
  serve::ModelRegistry registry(
      {dir, /*reload_interval_ms=*/0},
      [make_predictor] { return serve::WrapPredictor(make_predictor()); },
      &metrics);
  registry.Start().Abort();
  serve::InferenceServer server(&dataset, &registry, scfg.server, &metrics);
  server.Start().Abort();

  serve::ChaosInjector::Options copts;
  copts.seed = static_cast<uint64_t>(chaos_seed);
  if (chaos) {
    copts.delay_prob = 0.05;
    copts.drop_prob = 0.02;
    copts.truncate_prob = 0.02;
    copts.reset_prob = 0.02;
    copts.delay_ms_max = 5;
  }
  serve::ChaosInjector injector(copts);
  serve::AsyncServer front(&server, &metrics, scfg.front);
  if (chaos) front.SetChaos(&injector);
  front.Start().Abort();

  server.Rank(days.front()).status().Abort();  // warm-up

  // Capacity: a short closed-loop burst (an offered rate no server
  // reaches degenerates into closed-loop). Everything after is offered
  // as a multiple of this.
  const OverloadPoint calib =
      OfferLoad(front.port(), days, dataset.num_stocks(), clients,
                /*target_qps=*/1e9, /*seconds=*/1.0, deadline_ms);
  const double capacity = std::max(calib.goodput_qps, 1.0);
  std::printf("bench_serve overload: capacity %.0f qps (%lld clients, "
              "deadline %lldms, queue %lld, chaos %s)\n",
              capacity, static_cast<long long>(clients),
              static_cast<long long>(deadline_ms),
              static_cast<long long>(scfg.server.max_queue),
              chaos ? "on" : "off");

  std::vector<OverloadPoint> points;
  for (const std::string& m : Split(multipliers, ',')) {
    if (m.empty()) continue;
    const double multiplier = std::stod(m);
    OverloadPoint point =
        OfferLoad(front.port(), days, dataset.num_stocks(), clients,
                  multiplier * capacity, overload_seconds, deadline_ms);
    point.multiplier = multiplier;
    points.push_back(point);
    std::printf("  x%-5.1f offered %8.0f  achieved %8.0f  goodput %8.0f  "
                "ok %6" PRIu64 "  busy %6" PRIu64 "  deadline %5" PRIu64
                "  err %4" PRIu64 "  p50 %6.0fus  p99 %7.0fus\n",
                point.multiplier, point.offered_qps, point.achieved_qps,
                point.goodput_qps, point.ok, point.busy, point.deadline,
                point.error, point.p50_us, point.p99_us);
  }

  front.Stop();
  server.Stop();
  registry.Stop();
  std::filesystem::remove_all(dir);

  // The serving accounting invariant must survive overload and chaos.
  const int64_t srv_requests = metrics.requests.Value();
  const int64_t accounted = metrics.responses_ok.Value() +
                            metrics.responses_error.Value() +
                            metrics.expired.Value() + metrics.shed.Value();
  std::printf("accounting: requests %lld == ok %lld + err %lld + expired "
              "%lld + shed %lld (%s); busy_rejected %lld\n",
              static_cast<long long>(srv_requests),
              static_cast<long long>(metrics.responses_ok.Value()),
              static_cast<long long>(metrics.responses_error.Value()),
              static_cast<long long>(metrics.expired.Value()),
              static_cast<long long>(metrics.shed.Value()),
              srv_requests == accounted ? "OK" : "VIOLATED",
              static_cast<long long>(metrics.busy_rejected.Value()));
  if (chaos) {
    std::printf("chaos: %" PRIu64 " plans, %" PRIu64 " delays, %" PRIu64
                " drops, %" PRIu64 " truncates, %" PRIu64 " resets\n",
                injector.plans(), injector.delays(), injector.drops(),
                injector.truncates(), injector.resets());
  }

  if (!json.empty()) {
    std::ofstream out(json);
    out << "{\n  \"bench\": \"serve_robust\",\n";
    out << "  \"config\": {\"clients\": " << clients
        << ", \"deadline_ms\": " << deadline_ms
        << ", \"max_queue\": " << scfg.server.max_queue
        << ", \"stocks\": " << dataset.num_stocks()
        << ", \"overload_seconds\": " << overload_seconds
        << ", \"chaos\": " << (chaos ? "true" : "false")
        << ", \"chaos_seed\": " << chaos_seed << "},\n";
    out << "  \"capacity_qps\": " << capacity << ",\n";
    out << "  \"overload\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const OverloadPoint& p = points[i];
      out << "    {\"multiplier\": " << p.multiplier
          << ", \"offered_qps\": " << p.offered_qps
          << ", \"achieved_qps\": " << p.achieved_qps
          << ", \"goodput_qps\": " << p.goodput_qps << ", \"ok\": " << p.ok
          << ", \"busy\": " << p.busy << ", \"deadline\": " << p.deadline
          << ", \"error\": " << p.error << ", \"p50_us\": " << p.p50_us
          << ", \"p95_us\": " << p.p95_us << ", \"p99_us\": " << p.p99_us
          << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"accounting\": {\"requests\": " << srv_requests
        << ", \"responses_ok\": " << metrics.responses_ok.Value()
        << ", \"responses_error\": " << metrics.responses_error.Value()
        << ", \"expired\": " << metrics.expired.Value()
        << ", \"shed\": " << metrics.shed.Value()
        << ", \"busy_rejected\": " << metrics.busy_rejected.Value()
        << ", \"holds\": "
        << (srv_requests == accounted ? "true" : "false") << "},\n";
    out << "  \"chaos_faults\": {\"plans\": " << injector.plans()
        << ", \"delays\": " << injector.delays()
        << ", \"drops\": " << injector.drops()
        << ", \"truncates\": " << injector.truncates()
        << ", \"resets\": " << injector.resets() << "}\n";
    out << "}\n";
    std::printf("wrote %s\n", json.c_str());
  }
  return srv_requests == accounted ? 0 : 1;
}
