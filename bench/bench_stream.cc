// Load generator for the streaming market subsystem (BENCH_stream.json).
//
// Drives a RollingPipeline through a seeded daily stream — universe churn,
// relation decay, a mid-run flash crash — while closed-loop client threads
// hammer Rank(), and reports the subsystem's headline numbers:
//
//   * days/s          — trading days consumed (events, close, any due
//                       refit) per wall-clock second of streaming;
//   * retrain seconds — mean Fit wall time per rolling refit;
//   * reload p95      — export→promote hot-reload latency
//                       (stream.reload_us);
//   * rank p50/p95    — client-side Rank() latency under load.
//
//   ./bench_stream [--scale small|medium|large] [--stocks N] [--days D]
//                  [--retrain_every R] [--train_epochs E] [--clients C]
//                  [--num_threads T] [--json BENCH_stream.json]
//
// Each run exports into its own fresh checkpoint directory under /tmp and
// removes it before exiting. Metrics are read as a delta of
// obs::Registry::Global() snapshots, so a run reports only its own
// activity.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "market/relation_generator.h"
#include "market/universe.h"
#include "obs/registry.h"
#include "stream/pipeline.h"
#include "stream/tick_source.h"

namespace {

using namespace rtgcn;

double PercentileUs(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

std::string FmtD(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scale = "small";
  int64_t stocks = 0;  // 0 = from --scale
  int64_t days = 0;
  int64_t retrain_every = 15;
  int64_t train_epochs = 2;
  int64_t clients = 2;
  int num_threads = 0;
  std::string json;

  FlagSet fs(
      "Streaming-subsystem load generator: days/s, hot-reload latency, "
      "retrain cost.");
  fs.RegisterChoice("scale", &scale, {"small", "medium", "large"},
                    "preset universe/horizon size");
  fs.Register("stocks", &stocks, "universe slots (0 = from --scale)");
  fs.Register("days", &days, "trading days to stream (0 = from --scale)");
  fs.Register("retrain_every", &retrain_every, "days between rolling refits");
  fs.Register("train_epochs", &train_epochs, "epochs per rolling refit");
  fs.Register("clients", &clients,
              "closed-loop Rank() threads during streaming");
  fs.Register("num_threads", &num_threads,
              "tensor worker threads (0 = auto)");
  fs.Register("json", &json, "write the report as JSON to this path");
  fs.ParseOrDie(argc, argv);
  if (num_threads >= 1) SetNumThreads(num_threads);

  if (stocks <= 0) {
    stocks = scale == "large" ? 512 : scale == "medium" ? 128 : 48;
  }
  if (days <= 0) {
    days = scale == "large" ? 150 : scale == "medium" ? 120 : 80;
  }

  // Seeded market + stream scenario: churn and wiki-edge decay throughout,
  // a flash crash mid-run.
  Rng rng(11);
  const market::StockUniverse universe =
      market::StockUniverse::Generate(stocks, /*num_industries=*/8, &rng);
  market::RelationConfig rc;
  rc.num_wiki_types = 4;
  rc.wiki_links_per_stock = 1.0;
  const market::RelationData relations =
      market::GenerateRelations(universe, rc, &rng);

  stream::StreamConfig scfg;
  scfg.sim.num_days = days + 2;
  scfg.sim.seed = 5;
  scfg.flash_crash_day = days / 2;
  scfg.flash_crash_duration = 3;
  scfg.initial_active = stocks - stocks / 8;
  scfg.ipo_probability = 0.2;
  scfg.delist_probability = 0.2;
  scfg.min_active = stocks / 2;
  scfg.churn_start_day = 2;
  scfg.edge_appear_per_day = 2.0;
  scfg.type_half_life.assign(
      static_cast<size_t>(relations.relations.num_relation_types()), 0.0);
  for (int64_t t = relations.num_industry_types;
       t < relations.relations.num_relation_types(); ++t) {
    scfg.type_half_life[static_cast<size_t>(t)] = 20.0;
  }
  scfg.seed = 23;
  stream::TickSource source(universe, relations, scfg);

  stream::PipelineConfig pcfg;
  pcfg.model.strategy = core::Strategy::kTimeSensitive;
  pcfg.model.window = 8;
  pcfg.model.num_features = 2;
  pcfg.model.relational_filters = 8;
  pcfg.model.temporal_stride = 2;
  pcfg.model.dropout = 0.0f;
  pcfg.train.epochs = train_epochs;
  pcfg.train.verbose = false;
  // A fresh directory per run: the pipeline numbers its exports above any
  // checkpoint already present, so a shared directory grows run by run.
  char dir_template[] = "/tmp/rtgcn_bench_stream.XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("bench_stream: mkdtemp");
    return 1;
  }
  pcfg.checkpoint_dir = dir_template;
  pcfg.retrain_every = retrain_every;
  pcfg.train_history = 2 * retrain_every;
  stream::RollingPipeline pipeline(pcfg, &source, relations.relations);
  pipeline.Init().Abort();

  std::printf("bench_stream: %lld slots, %lld days, retrain every %lld "
              "(epochs %lld), %lld rank clients\n",
              static_cast<long long>(stocks), static_cast<long long>(days),
              static_cast<long long>(retrain_every),
              static_cast<long long>(train_epochs),
              static_cast<long long>(clients));

  const obs::RegistrySnapshot before = obs::Registry::Global().Snapshot();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> rank_ok{0}, rank_unavailable{0}, rank_stale{0};
  std::vector<std::vector<double>> rank_latencies(
      static_cast<size_t>(clients));
  std::vector<std::thread> rankers;
  rankers.reserve(static_cast<size_t>(clients));
  for (int64_t c = 0; c < clients; ++c) {
    rankers.emplace_back([&, c] {
      auto& lat = rank_latencies[static_cast<size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = std::chrono::steady_clock::now();
        auto reply = pipeline.Rank();
        if (reply.ok()) {
          lat.push_back(std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
          rank_ok.fetch_add(1, std::memory_order_relaxed);
          if (reply.ValueOrDie().stale) {
            rank_stale.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          rank_unavailable.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }

  double retrain_seconds_total = 0;
  int64_t retrains_seen = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t d = 0; d < days; ++d) {
    pipeline.Step().Abort();
    if (pipeline.retrains() > retrains_seen) {
      retrains_seen = pipeline.retrains();
      retrain_seconds_total += pipeline.last_retrain_seconds();
    }
  }
  const double stream_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true);
  for (auto& t : rankers) t.join();

  std::filesystem::remove_all(pcfg.checkpoint_dir);

  const obs::RegistrySnapshot delta =
      obs::Registry::Global().Snapshot().DeltaSince(before);
  const obs::HistogramSnapshot* reload_us =
      delta.FindHistogram("stream.reload_us");

  const double days_per_sec =
      static_cast<double>(days) / std::max(stream_seconds, 1e-9);
  const double retrain_mean_seconds =
      retrains_seen > 0
          ? retrain_seconds_total / static_cast<double>(retrains_seen)
          : 0.0;
  std::vector<double> all_rank;
  for (auto& lat : rank_latencies) {
    all_rank.insert(all_rank.end(), lat.begin(), lat.end());
  }

  std::printf("  streamed %lld days in %.2fs: %.1f days/s\n",
              static_cast<long long>(days), stream_seconds, days_per_sec);
  std::printf("  retrain: %lld refits, mean %.2fs; reload p95 %.1fus\n",
              static_cast<long long>(retrains_seen), retrain_mean_seconds,
              reload_us ? reload_us->Percentile(0.95) : 0.0);
  std::printf("  rank: %" PRIu64 " ok (%" PRIu64 " stale, %" PRIu64
              " unavailable)  p50 %.1fus  p95 %.1fus\n",
              rank_ok.load(), rank_stale.load(), rank_unavailable.load(),
              PercentileUs(all_rank, 0.50), PercentileUs(all_rank, 0.95));

  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::fprintf(stderr, "bench_stream: cannot open %s\n", json.c_str());
      return 1;
    }
    out << "{\n  \"bench\": \"stream\",\n";
    out << "  \"config\": {\"scale\": \"" << scale
        << "\", \"stocks\": " << stocks << ", \"days\": " << days
        << ", \"retrain_every\": " << retrain_every
        << ", \"train_epochs\": " << train_epochs
        << ", \"clients\": " << clients << "},\n";
    out << "  \"stream_seconds\": " << FmtD(stream_seconds) << ",\n";
    out << "  \"days_per_sec\": " << FmtD(days_per_sec) << ",\n";
    out << "  \"retrains\": " << retrains_seen << ",\n";
    out << "  \"retrain_mean_seconds\": " << FmtD(retrain_mean_seconds)
        << ",\n";
    out << "  \"reload_p95_us\": "
        << FmtD(reload_us ? reload_us->Percentile(0.95) : 0.0) << ",\n";
    out << "  \"rank\": {\"ok\": " << rank_ok.load()
        << ", \"stale\": " << rank_stale.load()
        << ", \"unavailable\": " << rank_unavailable.load()
        << ", \"p50_us\": " << FmtD(PercentileUs(all_rank, 0.50))
        << ", \"p95_us\": " << FmtD(PercentileUs(all_rank, 0.95)) << "}\n";
    out << "}\n";
    std::printf("wrote %s\n", json.c_str());
  }
  return 0;
}
