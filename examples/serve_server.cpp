// Serving quickstart, server side: simulate a market, make sure a
// checkpoint exists (training one if the directory is empty), then serve
// ranking queries over the line protocol with hot checkpoint reload.
//
// The whole serving stack is configured through one serve::ServerConfig
// (serve/config.h), so every knob here is the same flag with the same
// default as in bench_serve and the chaos harness:
//
//   ./serve_server [--port 7070] [--checkpoint_dir /tmp/rtgcn_serve_demo]
//                  [--reload_interval_ms 1000] [--cache 1]
//                  [--stocks 60] [--window 15] [--train_epochs 4]
//                  [--serve_seconds 0] [--num_threads N]
//                  [--max_queue 1024] [--executor_threads 16]
//                  [--max_connections 10000] [--max_line_bytes 65536]
//
// The stack is one InferenceServer behind the epoll AsyncServer. While it
// runs, retrain in another terminal and export into the same
// --checkpoint_dir (see README "Serving"): the registry promotes the new
// version without dropping a query. --serve_seconds 0 serves forever.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "baselines/rtgcn_predictor.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "harness/checkpoint.h"
#include "market/market.h"
#include "serve/async_server.h"
#include "serve/config.h"
#include "serve/registry.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using namespace rtgcn;

  // Market + dataset: the server needs the same feature pipeline the model
  // was trained on.
  market::MarketSpec spec = market::NasdaqSpec(/*scale=*/0.5);
  spec.train_days = 260;
  spec.test_days = 60;
  core::RtGcnConfig config;

  std::string dir = "/tmp/rtgcn_serve_demo";
  int64_t reload_interval_ms = 1000;
  int64_t train_epochs = 4;
  int64_t serve_seconds = 0;
  int64_t stats_every_s = 10;
  int num_threads = 0;

  serve::ServerConfig scfg;
  scfg.port = 7070;

  FlagSet fs("Line-protocol ranking server with hot checkpoint reload over "
             "a simulated market.");
  fs.Register("checkpoint_dir", &dir,
              "directory watched for checkpoint versions");
  fs.Register("reload_interval_ms", &reload_interval_ms,
              "checkpoint directory poll interval");
  fs.Register("stocks", &spec.num_stocks, "simulated universe size");
  fs.Register("window", &config.window, "look-back window length");
  fs.Register("train_epochs", &train_epochs,
              "epochs for the bootstrap model when the directory is empty");
  fs.Register("serve_seconds", &serve_seconds,
              "serve this long then exit (0 = forever)");
  fs.Register("stats_every_s", &stats_every_s,
              "print metrics every N seconds (0 = never)");
  fs.Register("num_threads", &num_threads,
              "tensor worker threads (0 = auto)");
  scfg.RegisterFlags(&fs);
  fs.ParseOrDie(argc, argv, [&scfg] { return scfg.Validate(); });
  if (num_threads >= 1) SetNumThreads(num_threads);

  const market::MarketData data = market::BuildMarket(spec);
  const market::WindowDataset dataset =
      data.MakeDataset(config.window, config.num_features);
  auto make_predictor = [&data, config] {
    return std::make_unique<baselines::RtGcnPredictor>(
        data.relations.relations, config, /*alpha=*/0.1f, /*seed=*/1);
  };

  // First run: nothing to serve yet — train briefly and export version 1.
  harness::CheckpointManager manager({dir, 1, 0});
  manager.Init().Abort();
  if (manager.ListCheckpoints().ValueOrDie().empty()) {
    std::printf("no checkpoint in %s — training an initial model...\n",
                dir.c_str());
    auto model = make_predictor();
    harness::TrainOptions train;
    train.epochs = train_epochs;
    train.verbose = true;
    model->Fit(dataset, dataset.Days(dataset.first_day(), spec.test_boundary() - 1),
               train);
    model->ExportSnapshot(manager.CheckpointPath(1)).Abort();
    std::printf("exported %s\n", manager.CheckpointPath(1).c_str());
  }

  serve::Metrics metrics;
  serve::ModelRegistry registry(
      {dir, reload_interval_ms},
      [make_predictor] { return serve::WrapPredictor(make_predictor()); },
      &metrics);
  registry.Start().Abort();

  serve::InferenceServer server(&dataset, &registry, scfg.server_options(),
                                &metrics);
  server.Start().Abort();
  serve::AsyncServer front(&server, &metrics, scfg.async_options());
  front.Start().Abort();
  std::printf("serving %s on 127.0.0.1:%d  (version %lld, days %lld..%lld, "
              "%lld stocks)\n",
              spec.name.c_str(), front.port(),
              static_cast<long long>(registry.CurrentVersion()),
              static_cast<long long>(dataset.first_day()),
              static_cast<long long>(dataset.last_day()),
              static_cast<long long>(dataset.num_stocks()));

  const int64_t stats_every = stats_every_s;
  for (int64_t elapsed = 0;
       serve_seconds <= 0 || elapsed < serve_seconds; ++elapsed) {
    ::sleep(1);
    if (stats_every > 0 && elapsed > 0 && elapsed % stats_every == 0) {
      std::printf("---\n%s", metrics.DumpText().c_str());
    }
  }
  front.Stop();
  server.Stop();
  registry.Stop();
  std::printf("final stats:\n%s", metrics.DumpText().c_str());
  return 0;
}
