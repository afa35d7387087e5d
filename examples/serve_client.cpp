// Serving quickstart, client side: serve::Client against serve_server.
//
//   ./serve_client --day 270 --stock 3            SCORE one stock
//   ./serve_client --day 270 --k 5                RANK top-5 of the day
//   ./serve_client --day 270 --k 5 --deadline_ms 20   shed if not served in 20ms
//   ./serve_client --health 1                     one-line health summary
//   ./serve_client --stats 1                      dump server metrics
//   ./serve_client --day 270 --k 5 --repeat 100   re-issue the query
//
// serve::Client handles the overload protocol for you: BUSY replies and
// connection failures retry with exponential backoff plus jitter (bounded
// by --attempts), DRAINING surfaces immediately, and every read/write is
// under a timeout so the client never hangs on a wedged server. Replies
// flagged STALE were served from cached scores while the server was
// DEGRADED.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/logging.h"
#include "serve/client.h"

int main(int argc, char** argv) {
  using namespace rtgcn;
  serve::Client::Options options;
  options.port = 7070;
  int64_t day = -1;
  int64_t stock = -1;
  int64_t k = 5;
  int64_t repeat = 1;
  int64_t deadline_ms = 0;
  bool stats = false;
  bool health = false;
  FlagSet fs("Query a running serve_server: SCORE one stock, RANK the "
             "day's top-k, or fetch health/metrics.");
  fs.Register("port", &options.port, "server TCP port");
  fs.Register("attempts", &options.max_attempts,
              "max tries per query (BUSY and connect failures retry)");
  fs.Register("recv_timeout_ms", &options.recv_timeout_ms,
              "per-read reply timeout");
  fs.Register("day", &day, "trading day to query (required for SCORE/RANK)");
  fs.Register("stock", &stock, "stock id for SCORE (-1 = RANK instead)");
  fs.Register("k", &k, "top-k size for RANK");
  fs.Register("repeat", &repeat, "re-issue the query this many times");
  fs.Register("deadline_ms", &deadline_ms,
              "shed the query if not served within this budget (0 = none)");
  fs.Register("stats", &stats, "dump server metrics and exit");
  fs.Register("health", &health, "print a one-line health summary and exit");
  fs.ParseOrDie(argc, argv);

  serve::Client client(options);

  if (health) {
    auto reply = client.Health();
    RTGCN_CHECK(reply.ok()) << reply.status().ToString();
    std::printf("%s\n", reply.ValueOrDie().c_str());
    return 0;
  }
  if (stats) {
    auto reply = client.Stats();
    RTGCN_CHECK(reply.ok()) << reply.status().ToString();
    std::printf("%s", reply.ValueOrDie().c_str());
    return 0;
  }

  RTGCN_CHECK(day >= 0) << "pass --day (and optionally --stock or --k)";
  for (int64_t i = 0; i < repeat; ++i) {
    if (stock >= 0) {
      auto reply = client.Score(day, stock, deadline_ms);
      RTGCN_CHECK(reply.ok()) << reply.status().ToString();
      const auto& r = reply.ValueOrDie();
      std::printf("version=%lld score=%.9g rank=%lld/%lld%s\n",
                  static_cast<long long>(r.model_version),
                  static_cast<double>(r.score),
                  static_cast<long long>(r.rank),
                  static_cast<long long>(r.num_stocks),
                  r.stale ? " STALE" : "");
    } else {
      auto reply = client.Rank(day, k, deadline_ms);
      RTGCN_CHECK(reply.ok()) << reply.status().ToString();
      const auto& r = reply.ValueOrDie();
      std::printf("version=%lld top:%s",
                  static_cast<long long>(r.model_version),
                  r.stale ? " (STALE)" : "");
      for (const auto& e : r.top) {
        std::printf(" %lld:%.9g", static_cast<long long>(e.stock),
                    static_cast<double>(e.score));
      }
      std::printf("\n");
    }
  }
  if (client.retries() > 0) {
    std::fprintf(stderr, "(retried %llu times)\n",
                 static_cast<unsigned long long>(client.retries()));
  }
  return 0;
}
