// `serve_hot` and `serve_cold` workloads: the serving stack (AsyncServer
// epoll front end over InferenceServer, v2 framing) driven over loopback by
// one closed-loop generator thread with one connection per CPU.
//
// serve_hot sends cached SCORE lines with about one RANK ... 5 in eight,
// over test days warmed before timing, so the front end, the protocol and
// the cached lookup do all the work. serve_cold cycles RANK lines in order
// through every valid day (more days than the score cache holds), so every
// request pays the batcher, feature assembly and one forward.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/rtgcn_predictor.h"
#include "bench.h"
#include "harness/checkpoint.h"
#include "market/market.h"
#include "serve/async_server.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace perfbench {

namespace {

using namespace rtgcn;

constexpr int kSetups = 3;              // setup_s is the median of these
constexpr double kSliceSeconds = 1.0;   // figures are medians over slices
constexpr double kColdHitLimit = 0.01;  // serve_cold must miss the cache
constexpr double kTailPercentile = 0.99;
constexpr double kDrainSeconds = 5;     // wait for in-flight replies
constexpr size_t kSampleEvery = 61;     // replies checked against the oracle
constexpr size_t kMaxSamples = 4000;
constexpr uint64_t kTraceEvery = 16;    // traced runs: request spans kept
constexpr int64_t kRankK = 5;

// The whole serving stack of one set-up: seeded market, fitted and exported
// model, registry, inference server and epoll front end.
struct Stack {
  market::MarketData market;
  std::unique_ptr<market::WindowDataset> dataset;
  std::vector<int64_t> train_days, test_days, days;
  core::RtGcnConfig config;
  uint64_t model_seed = 0;
  std::unique_ptr<baselines::RtGcnPredictor> predictor;  // the fitted model
  std::string dir;
  serve::Metrics metrics;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::AsyncServer> front;

  serve::ServableFactory Factory() const {
    const graph::RelationTensor* rel = &market.relations.relations;
    const core::RtGcnConfig cfg = config;
    const uint64_t seed = model_seed;
    return [rel, cfg, seed] {
      return serve::WrapPredictor(std::make_unique<baselines::RtGcnPredictor>(
          *rel, cfg, /*alpha=*/0.1f, seed));
    };
  }

  void StopFront() {
    if (front) front->Stop();
    front.reset();
  }
  void StopServer() {
    StopFront();
    if (server) server->Stop();
    server.reset();
  }
  ~Stack() {
    StopServer();
    if (registry) registry->Stop();
    registry.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<Stack> BuildStack(const Options& options, int index) {
  auto s = std::make_unique<Stack>();
  market::MarketSpec spec = market::NasdaqSpec(1.0);
  spec.seed = SeedFor(options.seed, 1);
  s->market = market::BuildMarket(spec);
  s->dataset = std::make_unique<market::WindowDataset>(
      s->market.MakeDataset(s->config.window, s->config.num_features));
  const market::DatasetSplit split =
      market::SplitByDay(*s->dataset, spec.test_boundary());
  s->train_days = split.train_days;
  s->test_days = split.test_days;
  s->days = s->dataset->Days(s->dataset->first_day(), s->dataset->last_day());
  s->model_seed = SeedFor(options.seed, 2);

  s->predictor = std::make_unique<baselines::RtGcnPredictor>(
      s->market.relations.relations, s->config, 0.1f, s->model_seed);
  harness::TrainOptions train;
  train.epochs = 1;
  train.seed = SeedFor(options.seed, 3);
  s->predictor->Fit(*s->dataset, s->train_days, train);

  s->dir = options.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
           std::to_string(index);
  harness::CheckpointManager manager({s->dir, 1, 0});
  manager.Init().Abort();
  s->predictor->ExportSnapshot(manager.CheckpointPath(1)).Abort();
  s->registry = std::make_unique<serve::ModelRegistry>(
      serve::ModelRegistry::Options{s->dir, /*reload_interval_ms=*/0},
      s->Factory(), &s->metrics);
  s->registry->Start().Abort();
  s->server = std::make_unique<serve::InferenceServer>(
      s->dataset.get(), s->registry.get(), serve::InferenceServer::Options(),
      &s->metrics);
  s->server->Start().Abort();
  return s;
}

void StartFront(Stack* s) {
  s->front = std::make_unique<serve::AsyncServer>(
      s->server.get(), &s->metrics, serve::AsyncServer::Options());
  s->front->Start().Abort();
}

// --- closed-loop wire generator ---------------------------------------------

struct Sample {
  std::string request;  // framed request line
  std::string reply;    // reply line as received
};

struct Wire {
  uint64_t sent = 0, ok = 0, busy = 0, deadline = 0, errors = 0;
  uint64_t drained = 0;  // replies that arrived after the window closed
  uint64_t lost = 0;     // never answered: disconnect or drain timeout
  // Latencies (ns) of OK replies completed in the window, in total and per
  // slice of the window.
  std::unique_ptr<obs::Histogram> latency;
  std::vector<std::unique_ptr<obs::Histogram>> slices;
  double slice_s = 0;
  double gen_cpu_s = 0, proc_cpu_s = 0;
  std::vector<Sample> samples;
  std::string error;

  uint64_t failed() const { return busy + deadline + errors + lost; }
};

struct Conn {
  int fd = -1;
  bool in_flight = false;
  uint64_t id = 0;
  int64_t t0 = 0;
  std::string request;
  std::string inbuf;
};

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += static_cast<size_t>(w);
  }
  return true;
}

// Drives `connections` closed-loop connections from this thread for
// `seconds`. Request i sends script[(offset + i) % size], so the script
// order is kept across connections. serve::Replay reports only aggregates;
// this generator also keeps sampled reply lines for the output oracle,
// per-slice latencies and its own thread's CPU time. With a ledger, some
// requests completing in odd slices are recorded as spans.
Wire DriveWire(int port, int connections,
               const std::vector<std::string>& script, size_t offset,
               double seconds, Ledger* ledger) {
  Wire w;
  const size_t num_slices = std::max<size_t>(
      ledger ? 2 : 1, static_cast<size_t>(seconds / kSliceSeconds));
  w.latency = std::make_unique<obs::Histogram>(LatencyBuckets());
  for (size_t i = 0; i < num_slices; ++i) {
    w.slices.push_back(std::make_unique<obs::Histogram>(LatencyBuckets()));
  }
  w.slice_s = seconds / static_cast<double>(num_slices);
  std::vector<Conn> conns(static_cast<size_t>(connections));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (Conn& c : conns) {
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      w.error = std::string("connect: ") + std::strerror(errno);
      for (Conn& d : conns) {
        if (d.fd >= 0) ::close(d.fd);
      }
      return w;
    }
  }

  uint64_t next = 0, replies = 0;
  const double gen_cpu0 = ThreadCpuSeconds(), proc_cpu0 = ProcessCpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t give_up = end + static_cast<int64_t>(kDrainSeconds * 1e9);
  const int64_t slice_ns = static_cast<int64_t>(w.slice_s * 1e9);
  bool window_open = true;

  auto send_next = [&](Conn* c) {
    const std::string& payload = script[(offset + next++) % script.size()];
    c->id = next;
    c->request = "2 " + std::to_string(c->id) + " " + payload;
    c->t0 = NowNs();
    c->in_flight = true;
    ++w.sent;
    if (!SendAll(c->fd, c->request + "\n")) {
      c->in_flight = false;
      ++w.lost;
      ::close(c->fd);
      c->fd = -1;
    }
  };

  // Classifies one reply line; false when it is not for the outstanding
  // request (the connection is then dropped).
  auto on_reply = [&](Conn* c, const std::string& line, int64_t t1) {
    if (!c->in_flight) return false;
    c->in_flight = false;
    const std::string prefix = "2 " + std::to_string(c->id) + " ";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      ++w.errors;
      return false;
    }
    const char* payload = line.c_str() + prefix.size();
    const bool ok = std::strncmp(payload, "OK", 2) == 0;
    if (ok) {
      ++w.ok;
    } else if (std::strncmp(payload, "BUSY", 4) == 0) {
      ++w.busy;
    } else if (std::strncmp(payload, "ERR deadline", 12) == 0) {
      ++w.deadline;
    } else {
      ++w.errors;
    }
    const size_t slice = static_cast<size_t>((t1 - start) / slice_ns);
    if (t1 >= end) {
      ++w.drained;
    } else if (ok) {
      const uint64_t ns = static_cast<uint64_t>(t1 - c->t0);
      w.latency->Record(ns);
      if (slice < num_slices) w.slices[slice]->Record(ns);
    }
    // Traced runs trace one request in kTraceEvery in every other slice, so
    // traced and untraced latencies come from the same stretch of the run
    // and the span buffer stays small at 100k requests per second.
    if (ledger && slice % 2 == 1 && c->id % kTraceEvery == 0) {
      ledger->Record("wire.request", c->t0, t1);
    }
    if (ok && replies++ % kSampleEvery == 0 && w.samples.size() < kMaxSamples) {
      w.samples.push_back({c->request, line});
    }
    return true;
  };

  for (Conn& c : conns) send_next(&c);
  std::vector<pollfd> pfds(conns.size());
  char buf[65536];
  for (;;) {
    const int64_t now = NowNs();
    if (window_open && now >= end) {
      window_open = false;
      w.gen_cpu_s = ThreadCpuSeconds() - gen_cpu0;
      w.proc_cpu_s = ProcessCpuSeconds() - proc_cpu0;
    }
    bool waiting = false;
    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = {conns[i].fd, POLLIN, 0};
      waiting = waiting || (conns[i].fd >= 0 && conns[i].in_flight);
    }
    if (!waiting || now >= give_up) break;
    if (::poll(pfds.data(), pfds.size(), 50) < 0 && errno != EINTR) break;
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.fd < 0 || pfds[i].revents == 0) continue;
      const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
      bool open = r > 0;
      if (open) c.inbuf.append(buf, static_cast<size_t>(r));
      size_t nl;
      while (open && (nl = c.inbuf.find('\n')) != std::string::npos) {
        const int64_t t1 = NowNs();
        const std::string line = c.inbuf.substr(0, nl);
        c.inbuf.erase(0, nl + 1);
        open = on_reply(&c, line, t1);
        if (open && t1 < end) send_next(&c);
      }
      if (!open && c.fd >= 0) {
        if (c.in_flight) ++w.lost;
        c.in_flight = false;
        ::close(c.fd);
        c.fd = -1;
      }
    }
  }
  for (Conn& c : conns) {
    if (c.fd < 0) continue;
    if (c.in_flight) ++w.lost;
    ::close(c.fd);
  }
  if (window_open) {
    w.gen_cpu_s = ThreadCpuSeconds() - gen_cpu0;
    w.proc_cpu_s = ProcessCpuSeconds() - proc_cpu0;
  }
  return w;
}

// --- output oracle ---------------------------------------------------------

// Compares sampled wire replies bit-exactly against InferenceServer::Rank on
// a separate server instance, so the timed server's cache is never touched.
// Returns the number of mismatching replies.
uint64_t CheckSamples(Stack* s, const std::vector<Sample>& samples,
                      Result* result) {
  serve::InferenceServer oracle(s->dataset.get(), s->registry.get(),
                                serve::InferenceServer::Options(), nullptr);
  oracle.Start().Abort();
  std::map<int64_t, serve::RankReply> by_day;
  std::map<int64_t, std::vector<int64_t>> rank_of;  // day -> rank per stock
  uint64_t mismatches = 0;
  for (const Sample& sample : samples) {
    auto request = serve::ParseRequest(sample.request);
    auto reply = request.ok()
                     ? serve::ParseReply(sample.reply, request.ValueOrDie())
                     : rtgcn::Result<serve::Reply>(request.status());
    std::string why;
    if (!reply.ok()) {
      why = "unparseable reply";
    } else {
      const serve::Request& req = request.ValueOrDie();
      const serve::Reply& rep = reply.ValueOrDie();
      auto it = by_day.find(req.day);
      if (it == by_day.end()) {
        auto truth = oracle.Rank(req.day);
        if (!truth.ok()) {
          result->Fail("oracle Rank failed: " + truth.status().ToString());
          break;
        }
        it = by_day.emplace(req.day, truth.MoveValueOrDie()).first;
        const std::vector<serve::RankEntry> all = serve::TopK(
            it->second.scores, static_cast<int64_t>(it->second.scores.size()));
        std::vector<int64_t>& ranks = rank_of[req.day];
        ranks.resize(all.size());
        for (size_t r = 0; r < all.size(); ++r) {
          ranks[static_cast<size_t>(all[r].stock)] = static_cast<int64_t>(r);
        }
      }
      const serve::RankReply& truth = it->second;
      if (req.verb == serve::Request::Verb::kScore) {
        const float want = truth.scores[static_cast<size_t>(req.stock)];
        if (rep.kind != serve::Reply::Kind::kScore ||
            rep.score.model_version != truth.model_version ||
            std::memcmp(&rep.score.score, &want, sizeof(want)) != 0 ||
            rep.score.rank !=
                rank_of[req.day][static_cast<size_t>(req.stock)]) {
          why = "SCORE reply differs";
        }
      } else {
        const std::vector<serve::RankEntry> want =
            serve::TopK(truth.scores, req.k);
        bool same = rep.kind == serve::Reply::Kind::kRank &&
                    rep.model_version == truth.model_version &&
                    rep.top.size() == want.size();
        for (size_t i = 0; same && i < want.size(); ++i) {
          same = rep.top[i].stock == want[i].stock &&
                 std::memcmp(&rep.top[i].score, &want[i].score,
                             sizeof(float)) == 0;
        }
        if (!same) why = "RANK reply differs";
      }
    }
    if (!why.empty()) {
      if (mismatches++ == 0) {
        result->Fail(why + ": '" + sample.request + "' -> '" + sample.reply +
                     "'");
      }
    }
  }
  oracle.Stop();
  std::printf("oracle: %zu sampled replies over %zu days, %" PRIu64
              " mismatches\n",
              samples.size(), by_day.size(), mismatches);
  if (mismatches > 0) {
    result->Fail(std::to_string(mismatches) + " wire replies differ from "
                 "InferenceServer::Rank");
  }
  return mismatches;
}

// --- one serve run ---------------------------------------------------------

struct Counters {
  uint64_t requests = 0, hits = 0, misses = 0, forwards = 0, batches = 0,
           shed = 0, expired = 0, batch_sum = 0;
};

Counters Delta(const obs::RegistrySnapshot& before,
               const obs::RegistrySnapshot& after) {
  const obs::RegistrySnapshot d = after.DeltaSince(before);
  Counters c;
  c.requests = d.CounterValue("serve.requests");
  c.hits = d.CounterValue("serve.cache_hits");
  c.misses = d.CounterValue("serve.cache_misses");
  c.forwards = d.CounterValue("serve.forwards");
  c.batches = d.CounterValue("serve.batches");
  c.shed = d.CounterValue("serve.shed");
  c.expired = d.CounterValue("serve.expired");
  if (const obs::HistogramSnapshot* h = d.FindHistogram("serve.batch_size")) {
    c.batch_sum = h->sum;
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddEndToEnd(const Wire& w, const std::vector<double>& setup_s,
                 Result* result) {
  result->Add("setup_s", Median(setup_s), "s");
  // Each figure is the median over the slices of the window, so a
  // burst of host contention moves few of the values it is taken from.
  std::vector<double> rate, p50, tail;
  for (const auto& h : w.slices) {
    rate.push_back(static_cast<double>(h->Count()) / w.slice_s);
    p50.push_back(1e-3 * h->Percentile(0.5));
    tail.push_back(1e-3 * h->Percentile(kTailPercentile));
  }
  result->Add("throughput_per_s", Median(rate), "1/s");
  result->Add("latency_p50_us", Median(p50), "us");
  result->Add("latency_tail_us", Median(tail), "us");
  const uint64_t ops = std::max<uint64_t>(1, w.latency->Count());
  result->Add("cpu_us_per_op",
              1e6 * (w.proc_cpu_s - w.gen_cpu_s) / static_cast<double>(ops),
              "us");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void Account(const Wire& w, uint64_t mismatches, Result* result) {
  result->attempted = w.sent;
  result->failed = w.failed() + mismatches;
  result->completed = w.ok > mismatches ? w.ok - mismatches : 0;
  result->in_flight = w.drained + w.lost;
  if (!w.error.empty()) result->Fail(w.error);
  if (w.failed() > 0) {
    result->Fail(std::to_string(w.failed()) + " requests failed (busy " +
                 std::to_string(w.busy) + ", deadline " +
                 std::to_string(w.deadline) + ", error " +
                 std::to_string(w.errors) + ", lost " +
                 std::to_string(w.lost) + ")");
  }
  result->Config("samples", std::to_string(w.latency->Count()));
  result->Config("tail_samples_beyond",
                 std::to_string(static_cast<int64_t>(
                     static_cast<double>(w.latency->Count()) *
                     (1 - kTailPercentile))));
}

// Median over batches of `per_batch` calls of `fn`, in ns per call; each
// batch is one span named `span`.
template <typename Fn>
double NsPerCall(Ledger* ledger, const char* span, int batches, int per_batch,
                 Fn&& fn) {
  for (int b = 0; b < batches; ++b) {
    Ledger::Scope scope(ledger, span);
    for (int i = 0; i < per_batch; ++i) fn(b * per_batch + i);
  }
  return 1e3 * Median(ledger->DurationsUs(span)) / per_batch;
}

enum class Kind { kHot, kCold };

Result RunServe(const Options& options, const Host& host, Kind kind) {
  Result result;
  UsePool(host.pool);
  const char* name = kind == Kind::kHot ? "serve_hot" : "serve_cold";
  const int connections = host.nproc;
  Ledger ledger(options.trace);

  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  std::vector<std::string> script;
  size_t offset = 0;
  for (int i = 0; i < kSetups; ++i) {
    Phase(std::string(name) + " setup " + std::to_string(i + 1));
    stack.reset();
    const int64_t t0 = NowNs();
    stack = BuildStack(options, i);
    Stack* s = stack.get();
    Rng rng(SeedFor(options.seed, 5));
    script.clear();
    if (kind == Kind::kHot) {
      // Cached SCORE lookups with one RANK in eight, over warmed test days.
      for (int64_t day : s->test_days) s->server->Rank(day).status().Abort();
      for (int j = 0; j < 4096; ++j) {
        const int64_t day = s->test_days[rng.UniformInt(s->test_days.size())];
        script.push_back(
            j % 8 == 7
                ? "RANK " + std::to_string(day) + " " + std::to_string(kRankK)
                : "SCORE " + std::to_string(day) + " " +
                      std::to_string(rng.UniformInt(static_cast<uint64_t>(
                          s->dataset->num_stocks()))));
      }
      offset = rng.UniformInt(script.size());
    } else {
      // Every valid day in order; the day before the starting point warms
      // the lazy paths and is evicted long before the cycle reaches it.
      for (int64_t day : s->days) {
        script.push_back("RANK " + std::to_string(day) + " " +
                         std::to_string(kRankK));
      }
      offset = rng.UniformInt(s->days.size());
      const size_t n = s->days.size();
      const int64_t warm = s->days[(offset + n - 1) % n];
      s->server->Rank(warm).status().Abort();
    }
    StartFront(s);
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - t0));
  }
  Stack* s = stack.get();
  result.Config(
      "universe",
      "NASDAQ-shaped, N=" + std::to_string(s->dataset->num_stocks()) + ", " +
          std::to_string(s->days.size()) + " valid days, cache capacity " +
          std::to_string(s->server->options().cache_capacity));
  result.Config("connections", std::to_string(connections) + " (closed loop)");
  result.Config("tail_percentile", "p99");

  Phase(std::string(name) + " window");
  const obs::RegistrySnapshot before = s->metrics.registry.Snapshot();
  const int64_t steal0 = StealTicks();
  const Wire w = DriveWire(s->front->port(), connections, script, offset,
                           options.seconds, options.trace ? &ledger : nullptr);
  result.Config("host_steal_pct",
                std::to_string(StealPercent(steal0, options.seconds)));
  const Counters counters = Delta(before, s->metrics.registry.Snapshot());
  // Wire p50 of the untraced (even) and, in a traced run, traced (odd)
  // slices.
  std::vector<double> p50_even, p50_odd;
  for (size_t i = 0; i < w.slices.size(); ++i) {
    (i % 2 == 0 ? p50_even : p50_odd)
        .push_back(1e-3 * w.slices[i]->Percentile(0.5));
  }
  const double wire_p50 = Median(p50_even);
  s->StopFront();
  std::printf("%s wire: sent %" PRIu64 " ok %" PRIu64 " busy %" PRIu64
              " deadline %" PRIu64 " err %" PRIu64 " lost %" PRIu64
              ", in flight at close %" PRIu64 "; server requests %" PRIu64
              " hits %" PRIu64 " misses %" PRIu64 " forwards %" PRIu64
              " batches %" PRIu64 "\n",
              name, w.sent, w.ok, w.busy, w.deadline, w.errors, w.lost,
              w.drained + w.lost, counters.requests, counters.hits,
              counters.misses, counters.forwards, counters.batches);
  const double hit_ratio =
      Ratio(counters.hits, counters.hits + counters.misses);

  if (options.trace && kind == Kind::kHot) {
    // In-process costs of the hot path, on the timed server (front end
    // stopped, batcher idle; none of these calls uses the tensor pool).
    Phase("serve_hot ledger");
    std::vector<std::string> lines;
    std::vector<serve::Request> requests;
    for (size_t j = 0; j < script.size(); ++j) {
      lines.push_back("2 " + std::to_string(j + 1) + " " + script[j]);
      requests.push_back(serve::ParseRequest(lines.back()).ValueOrDie());
    }
    std::vector<serve::Reply> replies(requests.size());
    for (size_t j = 0; j < requests.size(); ++j) {
      const serve::Request& q = requests[j];
      serve::Reply& r = replies[j];
      r.proto = 2;
      r.id = q.id;
      if (q.verb == serve::Request::Verb::kScore) {
        r.kind = serve::Reply::Kind::kScore;
        s->server->TryScoreCached(q.day, q.stock, &r.score);
      } else {
        serve::RankReply rank;
        s->server->TryRankCached(q.day, &rank);
        r.kind = serve::Reply::Kind::kRank;
        r.model_version = rank.model_version;
        r.k = q.k;
        r.top = serve::TopK(rank.scores, q.k);
      }
    }
    const size_t n = lines.size();
    constexpr int kBatches = 40, kPerBatch = 2000;
    size_t sink = 0;
    const double parse_ns =
        NsPerCall(&ledger, "serve.parse", kBatches, kPerBatch, [&](int i) {
          sink += serve::ParseRequest(lines[i % n]).ok();
        });
    const double format_ns =
        NsPerCall(&ledger, "serve.format", kBatches, kPerBatch, [&](int i) {
          sink += serve::FormatReply(replies[i % n]).size();
        });
    const double lookup_ns =
        NsPerCall(&ledger, "serve.cached_lookup", kBatches, kPerBatch,
                  [&](int i) {
                    const serve::Request& q = requests[i % n];
                    if (q.verb == serve::Request::Verb::kScore) {
                      serve::ScoreReply out;
                      sink += s->server->TryScoreCached(q.day, q.stock, &out);
                    } else {
                      serve::RankReply out;
                      sink += s->server->TryRankCached(q.day, &out);
                    }
                  });
    std::string out;
    const double fast_ns =
        NsPerCall(&ledger, "serve.fast_path", kBatches, kPerBatch, [&](int i) {
          sink += serve::TryExecuteLineFast(s->server.get(), &s->metrics,
                                            lines[i % n], &out);
        });
    if (sink == 0) result.Fail("in-process hot path answered nothing");
    const std::string cpu = "serve_hot cpu_us_per_op";
    result.Add("serve_hot.serve.parse_ns", parse_ns, "ns", cpu);
    result.Add("serve_hot.serve.format_ns", format_ns, "ns", cpu);
    result.Add("serve_hot.serve.cached_lookup_ns", lookup_ns, "ns",
               "serve_hot latency_p50_us");
    result.Add("serve_hot.serve.fast_path_ns", fast_ns, "ns",
               "serve_hot latency_p50_us");
    result.Add("serve_hot.serve.front_end_us", wire_p50 - 1e-3 * fast_ns, "us",
               "serve_hot throughput_per_s");
    result.Add("serve_hot.serve.cache_hit_ratio", hit_ratio, "ratio",
               "serve_hot all metrics (should read 1.0)");
    result.Add("serve_hot.replay.busy_share",
               Ratio(w.gen_cpu_s, options.seconds), "ratio",
               "none: near 1 means the generator, not the server, limits");
  }

  s->StopServer();
  Phase(std::string(name) + " oracle");
  const uint64_t mismatches = CheckSamples(s, w.samples, &result);
  Account(w, mismatches, &result);
  // Each workload must keep the property it is named for.
  if (kind == Kind::kHot && hit_ratio != 1.0) {
    result.Fail("serve_hot cache hit ratio " + std::to_string(hit_ratio) +
                " != 1");
  }
  if (kind == Kind::kCold && hit_ratio > kColdHitLimit) {
    result.Fail("serve_cold cache hit ratio " + std::to_string(hit_ratio) +
                " > " + std::to_string(kColdHitLimit));
  }

  if (options.trace && kind == Kind::kCold) {
    // Cold-path layers with no server batcher live (rank_inproc runs its
    // own, while this thread only waits for it).
    Phase("serve_cold ledger");
    constexpr size_t kDays = 60;
    std::vector<int64_t> days;
    for (size_t j = 0; j < kDays; ++j) {
      days.push_back(s->days[(offset + j) % s->days.size()]);
    }
    for (const int64_t day : days) {
      Tensor features;
      {
        Ledger::Scope span(&ledger, "market.features");
        features = s->dataset->Features(day);
      }
      Ledger::Scope span(&ledger, "core.forward");
      s->predictor->Score(features);
    }
    auto forward_us = [&](int threads) {
      UsePool(threads);
      const Tensor features = s->dataset->Features(days.front());
      s->predictor->Score(features);  // let the pool resize before timing
      std::vector<double> us;
      for (int j = 0; j < 30; ++j) {
        const int64_t t0 = NowNs();
        s->predictor->Score(features);
        us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
      }
      return Median(us);
    };
    const double fwd_1t = forward_us(1);
    const double fwd_pool = forward_us(host.pool);
    const double fwd_nproc = forward_us(host.nproc);
    UsePool(host.pool);
    {
      serve::InferenceServer cold(s->dataset.get(), s->registry.get(),
                                  serve::InferenceServer::Options(), nullptr);
      cold.Start().Abort();
      for (const int64_t day : days) {
        Ledger::Scope span(&ledger, "serve.rank_inproc");
        if (!cold.Rank(day).ok()) result.Fail("in-process Rank failed");
      }
      cold.Stop();
    }
    const double features_us = Median(ledger.DurationsUs("market.features"));
    const double fwd_us = Median(ledger.DurationsUs("core.forward"));
    const double rank_us = Median(ledger.DurationsUs("serve.rank_inproc"));
    const std::string tput = "serve_cold throughput_per_s";
    result.Add("serve_cold.market.features_us", features_us, "us",
               "serve_cold latency_p50_us");
    result.Add("serve_cold.core.forward_us", fwd_us, "us",
               tput + ", cpu_us_per_op");
    result.Add("serve_cold.serve.rank_inproc_us", rank_us, "us",
               "serve_cold latency_p50_us");
    result.Add("serve_cold.serve.batch_overhead_us",
               rank_us - fwd_us - features_us, "us",
               "serve_cold latency_p50_us");
    result.Add("serve_cold.serve.front_end_us", wire_p50 - rank_us, "us",
               "serve_cold latency_p50_us");
    result.Add("serve_cold.serve.cache_hit_ratio", hit_ratio, "ratio",
               tput + " (should read about 0)");
    result.Add("serve_cold.serve.forwards_per_request",
               Ratio(counters.forwards, counters.requests), "ratio", tput);
    result.Add("serve_cold.serve.batch_size_mean",
               Ratio(counters.batch_sum, counters.batches), "requests", tput);
    result.Add("serve_cold.serve.shed_share",
               Ratio(counters.shed + counters.expired, counters.requests),
               "ratio", tput);
    result.Add("serve_cold.common.forward_us_1t", fwd_1t, "us", tput);
    result.Add("serve_cold.common.forward_us_pool", fwd_pool, "us", tput);
    result.Add("serve_cold.common.forward_us_nproc", fwd_nproc, "us", tput);
  }

  if (options.trace) {
    result.Add(std::string(name) + ".trace_overhead_pct",
               100.0 * (Median(p50_odd) / wire_p50 - 1.0), "%",
               "none: traced minus untraced wire p50");
    const std::string path = options.out_dir + "/" + name + "-trace.json";
    if (!ledger.WriteChromeTrace(path)) Phase("could not write " + path);
  } else {
    AddEndToEnd(w, setup_s, &result);
  }
  return result;
}

}  // namespace

Result RunServeHot(const Options& options, const Host& host) {
  return RunServe(options, host, Kind::kHot);
}

Result RunServeCold(const Options& options, const Host& host) {
  return RunServe(options, host, Kind::kCold);
}

}  // namespace perfbench
