// Seeded, fixed-iteration fuzz test of the wire grammar (serve/protocol.h).
//
//  * Requests: valid lines (a fixed corpus plus FormatRequest of random
//    requests) are mutated by byte flips, token drop/duplicate/swap and
//    truncation. ParseRequest must never crash, and every line it accepts
//    must survive ParseRequest(FormatRequest(r)) unchanged.
//  * Replies: every FormatReply output of a random reply parses back
//    through ParseReply to the same line with bit-identical floats.
//    Mutated reply lines must not crash ParseReply, and one it accepts
//    re-formats and re-parses the same way.
//  * Execution: mutated SCORE/RANK/SCOREN/HEALTH/PING lines (days and
//    stocks out of range, DEADLINE values) run against an InferenceServer
//    over a stub ScoreFn, through the non-waiting call first and
//    ExecuteLine when it declines, as the front end does. Every reply is
//    framed and echoes the request id, and the server accounts for every
//    request it saw.
//
// Only raw std::mt19937_64 output is used (no distributions), so every run
// on every platform checks the same lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve_fixture.h"
#include "temp_dir.h"

namespace rtgcn::serve {
namespace {

constexpr int kIterations = 20000;
constexpr int kExecuteIterations = 5000;

class Fuzzer {
 public:
  explicit Fuzzer(uint64_t seed) : gen_(seed) {}

  uint64_t Below(uint64_t n) { return gen_() % n; }
  uint64_t Id() { return Below(2) == 0 ? Below(100) : gen_(); }
  int64_t Small() { return static_cast<int64_t>(Below(2000)) - 100; }
  int64_t Any() {
    return Below(2) == 0 ? static_cast<int64_t>(gen_()) : Small();
  }

  // Any non-NaN float32: raw bit patterns (subnormals, ±0, ±inf, huge
  // magnitudes) half the time, ordinary scores otherwise.
  float Score() {
    for (;;) {
      float f = static_cast<float>(Small()) * 1e-3f;
      if (Below(2) == 0) {
        const uint32_t u = static_cast<uint32_t>(gen_());
        std::memcpy(&f, &u, sizeof(f));
      }
      if (!std::isnan(f)) return f;
    }
  }

  std::string Text() {
    static const char* kWords[] = {"SERVING", "version=3", "usage:", "x",
                                   "deadline", "exceeded:", "<day>"};
    std::string out;
    for (uint64_t i = Below(5); i > 0; --i) {
      out += out.empty() ? "" : " ";
      out += kWords[Below(7)];
    }
    return out;
  }

  // Applies 1-3 random mutations to `line`.
  std::string Mutate(std::string line) {
    for (uint64_t round = 1 + Below(3); round > 0; --round) {
      const uint64_t op = Below(5);
      if (op == 0 && !line.empty()) {  // byte flip
        line[Below(line.size())] ^= static_cast<char>(1 + Below(255));
        continue;
      }
      if (op == 1) {  // truncation
        line.resize(Below(line.size() + 1));
        continue;
      }
      std::vector<std::string> tokens;
      for (size_t i = 0; i <= line.size();) {
        const size_t end = std::min(line.find(' ', i), line.size());
        if (end > i) tokens.push_back(line.substr(i, end - i));
        i = end + 1;
      }
      if (tokens.size() < 2) continue;
      const size_t a = Below(tokens.size()), b = Below(tokens.size());
      if (op == 2) tokens.erase(tokens.begin() + a);              // drop
      if (op == 3) tokens.insert(tokens.begin() + a, tokens[a]);  // dup
      if (op == 4) std::swap(tokens[a], tokens[b]);               // swap
      line.clear();
      for (const std::string& t : tokens) {
        line += (line.empty() ? "" : " ") + t;
      }
    }
    return line;
  }

 private:
  std::mt19937_64 gen_;
};

Request RandomRequest(Fuzzer* f) {
  Request r;
  r.id = f->Id();
  r.verb = static_cast<Request::Verb>(f->Below(7));
  r.day = f->Any();
  switch (r.verb) {
    case Request::Verb::kScore: r.stock = f->Any(); break;
    case Request::Verb::kRank: r.k = f->Any(); break;
    case Request::Verb::kScoreBatch:
      for (uint64_t i = 1 + f->Below(6); i > 0; --i) {
        r.stocks.push_back(f->Small());
      }
      break;
    default: r.day = 0; return r;  // PING/HEALTH/STATS/QUIT: no operands
  }
  if (f->Below(3) == 0) r.deadline_ms = 1 + f->Small() + 100;
  return r;
}

void ExpectSameRequest(const Request& a, const Request& b,
                       const std::string& line) {
  EXPECT_EQ(a.id, b.id) << line;
  EXPECT_EQ(a.verb, b.verb) << line;
  EXPECT_EQ(a.day, b.day) << line;
  EXPECT_EQ(a.stock, b.stock) << line;
  EXPECT_EQ(a.stocks, b.stocks) << line;
  EXPECT_EQ(a.k, b.k) << line;
  EXPECT_EQ(a.deadline_ms, b.deadline_ms) << line;
}

// A random reply plus the request a client would have sent for it.
std::pair<Reply, Request> RandomReply(Fuzzer* f) {
  Reply r;
  Request sent;
  r.id = f->Id();
  r.model_version = f->Any();
  r.stale = f->Below(2) == 0;
  switch (f->Below(8)) {
    case 0:
      r.kind = Reply::Kind::kPong;
      sent.verb = Request::Verb::kPing;
      break;
    case 1: r.kind = Reply::Kind::kDraining; break;
    case 2: r.kind = Reply::Kind::kErr; r.text = f->Text(); break;
    case 3: r.kind = Reply::Kind::kBusy; r.text = f->Text(); break;
    case 4:
      r.kind = Reply::Kind::kHealth;
      r.text = f->Text();
      sent.verb = Request::Verb::kHealth;
      break;
    case 5:
      r.kind = Reply::Kind::kScore;
      sent.verb = Request::Verb::kScore;
      r.score = {f->Any(), f->Score(), f->Any(), f->Any(), r.stale};
      break;
    case 6:
      r.kind = Reply::Kind::kRank;
      sent.verb = Request::Verb::kRank;
      r.k = static_cast<int64_t>(f->Below(6));
      for (int64_t i = 0; i < r.k; ++i) {
        r.top.push_back({f->Small(), f->Score()});
      }
      break;
    default:
      r.kind = Reply::Kind::kScoreBatch;
      sent.verb = Request::Verb::kScoreBatch;
      for (uint64_t i = f->Below(6); i > 0; --i) {
        r.batch_stocks.push_back(f->Small());
        r.batch.push_back({-1, f->Score(), f->Any(), 0, false});
      }
      break;
  }
  return {r, sent};
}

std::vector<uint32_t> FloatBits(const Reply& r) {
  std::vector<float> floats = {r.score.score};
  for (const RankEntry& e : r.top) floats.push_back(e.score);
  for (const ScoreReply& s : r.batch) floats.push_back(s.score);
  std::vector<uint32_t> bits(floats.size());
  std::memcpy(bits.data(), floats.data(), floats.size() * sizeof(float));
  return bits;
}

TEST(ProtocolFuzzTest, AcceptedRequestsRoundTripThroughFormatRequest) {
  const std::vector<std::string> corpus = {
      "2 1 PING", "2 7 HEALTH", "2 3 STATS", "2 4 QUIT", "2 5 SCORE 130 7",
      "2 6 SCORE 130 7 DEADLINE 50", "2 8 RANK 130 5",
      "2 9 RANK 130 5 DEADLINE 20", "2 10 SCOREN 130 3 1 2 3",
      "2 11 SCOREN 130 2 4 5 DEADLINE 9", "2 18446744073709551615 PING",
      "PING", "SCORE 130 7"};
  Fuzzer f(0x5eed0001);
  int accepted = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    std::string line = corpus[f.Below(corpus.size())];
    if (i % 2 == 0) {
      const Request r = RandomRequest(&f);
      line = FormatRequest(r);
      const auto parsed = ParseRequest(line);
      ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
      ExpectSameRequest(r, parsed.ValueOrDie(), line);
    }
    line = f.Mutate(std::move(line));
    const auto parsed = ParseRequest(line);
    if (!parsed.ok()) continue;
    ++accepted;
    const auto again = ParseRequest(FormatRequest(parsed.ValueOrDie()));
    ASSERT_TRUE(again.ok()) << line;
    ExpectSameRequest(parsed.ValueOrDie(), again.ValueOrDie(), line);
  }
  // Both the accept and the reject paths see real traffic.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations);
}

TEST(ProtocolFuzzTest, FormattedRepliesParseBackBitExact) {
  Fuzzer f(0x5eed0002);
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const auto [want, sent] = RandomReply(&f);
    const std::string line = FormatReply(want);
    const auto got = ParseReply(line, sent);
    ASSERT_TRUE(got.ok()) << line << ": " << got.status().ToString();
    EXPECT_EQ(got.ValueOrDie().id, want.id) << line;
    EXPECT_EQ(got.ValueOrDie().kind, want.kind) << line;
    EXPECT_EQ(FormatReply(got.ValueOrDie()), line);
    if (want.kind == Reply::Kind::kScore ||
        want.kind == Reply::Kind::kRank ||
        want.kind == Reply::Kind::kScoreBatch) {
      EXPECT_EQ(FloatBits(got.ValueOrDie()), FloatBits(want)) << line;
    }
  }
}

TEST(ProtocolFuzzTest, MutatedRepliesNeverCrashAndReparseBitExact) {
  Fuzzer f(0x5eed0003);
  int accepted = 0;
  for (int i = 0; i < kIterations && !HasFailure(); ++i) {
    const auto [original, sent] = RandomReply(&f);
    const std::string line = f.Mutate(FormatReply(original));
    const auto parsed = ParseReply(line, sent);
    if (!parsed.ok()) continue;
    ++accepted;
    const std::string again_line = FormatReply(parsed.ValueOrDie());
    const auto again = ParseReply(again_line, sent);
    ASSERT_TRUE(again.ok()) << line << " -> " << again_line;
    EXPECT_EQ(FormatReply(again.ValueOrDie()), again_line) << line;
    EXPECT_EQ(FloatBits(again.ValueOrDie()), FloatBits(parsed.ValueOrDie()))
        << line;
  }
  EXPECT_GT(accepted, 0);
}

// A random SCORE/RANK/SCOREN/HEALTH/PING request against a `num_days` x
// `num_stocks` stub: operands mostly in range, a quarter anywhere.
Request RandomServedRequest(Fuzzer* f, int64_t num_days, int64_t num_stocks) {
  Request r;
  r.id = f->Id();
  const auto day = [&] {
    return f->Below(4) == 0 ? f->Small()
                            : static_cast<int64_t>(f->Below(num_days));
  };
  const auto stock = [&] {
    return f->Below(4) == 0 ? f->Small()
                            : static_cast<int64_t>(f->Below(num_stocks));
  };
  switch (f->Below(5)) {
    case 0: r.verb = Request::Verb::kPing; return r;
    case 1: r.verb = Request::Verb::kHealth; return r;
    case 2:
      r.verb = Request::Verb::kScore;
      r.day = day();
      r.stock = stock();
      break;
    case 3:
      r.verb = Request::Verb::kRank;
      r.day = day();
      r.k = static_cast<int64_t>(f->Below(static_cast<uint64_t>(num_stocks)));
      break;
    default:
      r.verb = Request::Verb::kScoreBatch;
      r.day = day();
      for (uint64_t i = 1 + f->Below(4); i > 0; --i) {
        r.stocks.push_back(stock());
      }
      break;
  }
  if (f->Below(4) == 0) r.deadline_ms = 1 + static_cast<int64_t>(f->Below(50));
  return r;
}

TEST(ProtocolFuzzTest, ExecuteLineRepliesFramedAndAccountsForEveryRequest) {
  const ScopedTempDir dir("fuzz_execute");
  ExportUntrained(dir.path(), /*epoch=*/1);
  constexpr int64_t kStocks = 8;
  constexpr int64_t kDays = 40;
  Metrics metrics;
  ModelRegistry registry({dir.path(), /*reload_interval_ms=*/0},
                         MakeFactory(), &metrics);
  ASSERT_TRUE(registry.Start().ok());
  HeldScoreFn stub(kStocks, /*max_day=*/kDays - 1);
  stub.Release();
  InferenceServer::Options opts;
  opts.cache_capacity = 8;  // fewer entries than days: misses keep coming
  InferenceServer server(stub.fn(), kStocks, &registry, opts, &metrics);
  ASSERT_TRUE(server.Start().ok());

  Fuzzer f(0x5eed0004);
  int ok_replies = 0;
  int inline_replies = 0;
  for (int i = 0; i < kExecuteIterations && !HasFailure(); ++i) {
    std::string line = FormatRequest(RandomServedRequest(&f, kDays, kStocks));
    if (f.Below(2) == 0) line = f.Mutate(std::move(line));
    // The front end splits on newlines, so no line ever carries one.
    std::replace(line.begin(), line.end(), '\n', ' ');
    // As the front end does: the non-waiting call first, and the waiting
    // one only for a line it declines.
    std::string reply;
    if (TryExecuteLineFast(&server, &metrics, line, &reply)) {
      ++inline_replies;
    } else {
      reply = ExecuteLine(&server, &metrics, line);
    }
    const auto request = ParseRequest(line);
    if (request.ok() && request.ValueOrDie().verb == Request::Verb::kQuit) {
      EXPECT_EQ(reply, "") << line;
      continue;
    }
    // Framed: "2 <id> ...", the id echoed from the request.
    ASSERT_EQ(reply.rfind("2 ", 0), 0u) << line << " -> " << reply;
    const size_t id_end = reply.find(' ', 2);
    ASSERT_NE(id_end, std::string::npos) << line << " -> " << reply;
    const std::string id = reply.substr(2, id_end - 2);
    if (!request.ok()) {
      // Unparseable: the id when the frame held one, else 0; one line.
      std::vector<std::string> tokens;
      for (size_t p = 0; p <= line.size();) {
        const size_t end = std::min(line.find(' ', p), line.size());
        if (end > p) tokens.push_back(line.substr(p, end - p));
        p = end + 1;
      }
      EXPECT_TRUE(id == "0" || (tokens.size() > 1 && tokens[1] == id))
          << line << " -> " << reply;
      EXPECT_EQ(reply.compare(id_end, 5, " ERR "), 0) << line << " -> "
                                                      << reply;
      EXPECT_EQ(reply.find('\n'), std::string::npos) << line;
      continue;
    }
    EXPECT_EQ(id, std::to_string(request.ValueOrDie().id)) << line;
    if (request.ValueOrDie().verb == Request::Verb::kStats) {
      EXPECT_EQ(reply.substr(reply.size() - 3), "END") << line;
      continue;
    }
    EXPECT_EQ(reply.find('\n'), std::string::npos) << line;
    const auto parsed = ParseReply(reply, request.ValueOrDie());
    ASSERT_TRUE(parsed.ok()) << line << " -> " << reply;
    EXPECT_EQ(parsed.ValueOrDie().id, request.ValueOrDie().id) << line;
    const Reply::Kind kind = parsed.ValueOrDie().kind;
    ok_replies += kind == Reply::Kind::kScore || kind == Reply::Kind::kRank ||
                  kind == Reply::Kind::kScoreBatch;
  }
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(),
            metrics.responses_ok.Value() + metrics.responses_error.Value() +
                metrics.expired.Value() + metrics.shed.Value());
  // Both the scoring and the rejecting paths see real traffic, and so do
  // both the inline and the waiting legs.
  EXPECT_GT(ok_replies, kExecuteIterations / 10);
  EXPECT_GT(inline_replies, 0);
  EXPECT_LT(inline_replies, kExecuteIterations);
  EXPECT_GT(metrics.responses_error.Value(), 0u);
  EXPECT_GT(stub.entered(), static_cast<int>(kDays));
}

}  // namespace
}  // namespace rtgcn::serve
