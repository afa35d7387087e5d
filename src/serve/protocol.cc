#include "serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <span>
#include <sstream>
#include <string_view>

#include "common/strings.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/server.h"

namespace rtgcn::serve {

namespace {

// Request parsing runs on every wire line, so it works in string_views
// over the input and from_chars — no per-token heap traffic. Each parser
// accepts only a whole token (no sign for an unsigned one) and leaves *out
// untouched otherwise.
template <typename Int>
bool ParseInt(std::string_view s, Int* out) {
  Int v{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || p != s.data() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

// Reply scores go through strtof, the inverse of the %.9g they were
// printed with (client side only, so the token copy is fine).
bool ParseFloat(std::string_view s, float* out) {
  const std::string token(s);
  char* end = nullptr;
  const float v = std::strtof(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) return false;
  *out = v;
  return true;
}

// Parses an optional trailing "DEADLINE <ms>" (ms > 0) starting at
// parts[at]; true when absent or well-formed.
bool ParseDeadline(const std::vector<std::string_view>& parts, size_t at,
                   int64_t* deadline_ms) {
  *deadline_ms = 0;
  if (parts.size() == at) return true;
  if (parts.size() != at + 2 || parts[at] != "DEADLINE") return false;
  return ParseInt(parts[at + 1], deadline_ms) && *deadline_ms > 0;
}

std::vector<std::string_view> Tokenize(std::string_view sv) {
  std::vector<std::string_view> parts;
  size_t i = 0;
  while (i < sv.size()) {
    while (i < sv.size() && sv[i] == ' ') ++i;
    const size_t tok = i;
    while (i < sv.size() && sv[i] != ' ') ++i;
    if (i > tok) parts.push_back(sv.substr(tok, i - tok));
  }
  return parts;
}

// Parses the verb + operands at parts[at..] into `request`. The error
// message on a malformed line is the usage text of the verb.
Status ParseVerb(const std::vector<std::string_view>& parts, size_t at,
                 Request* request) {
  const std::string_view cmd = parts[at];
  if (cmd == "PING") {
    request->verb = Request::Verb::kPing;
    return Status::OK();
  }
  if (cmd == "HEALTH") {
    request->verb = Request::Verb::kHealth;
    return Status::OK();
  }
  if (cmd == "STATS") {
    request->verb = Request::Verb::kStats;
    return Status::OK();
  }
  if (cmd == "QUIT") {
    request->verb = Request::Verb::kQuit;
    return Status::OK();
  }
  if (cmd == "SCORE") {
    request->verb = Request::Verb::kScore;
    if (parts.size() < at + 3 || !ParseInt(parts[at + 1], &request->day) ||
        !ParseInt(parts[at + 2], &request->stock) ||
        !ParseDeadline(parts, at + 3, &request->deadline_ms)) {
      return Status::InvalidArgument(
          "usage: SCORE <day> <stock> [DEADLINE <ms>]");
    }
    return Status::OK();
  }
  if (cmd == "RANK") {
    request->verb = Request::Verb::kRank;
    if (parts.size() < at + 3 || !ParseInt(parts[at + 1], &request->day) ||
        !ParseInt(parts[at + 2], &request->k) ||
        !ParseDeadline(parts, at + 3, &request->deadline_ms)) {
      return Status::InvalidArgument("usage: RANK <day> <k> [DEADLINE <ms>]");
    }
    return Status::OK();
  }
  if (cmd == "SCOREN") {
    request->verb = Request::Verb::kScoreBatch;
    int64_t n = 0;
    if (parts.size() < at + 3 || !ParseInt(parts[at + 1], &request->day) ||
        !ParseInt(parts[at + 2], &n) || n < 1 ||
        parts.size() < at + 3 + static_cast<size_t>(n)) {
      return Status::InvalidArgument(
          "usage: SCOREN <day> <n> <stock>... [DEADLINE <ms>]");
    }
    request->stocks.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      if (!ParseInt(parts[at + 3 + static_cast<size_t>(i)],
                    &request->stocks[static_cast<size_t>(i)])) {
        return Status::InvalidArgument(
            "usage: SCOREN <day> <n> <stock>... [DEADLINE <ms>]");
      }
    }
    if (!ParseDeadline(parts, at + 3 + static_cast<size_t>(n),
                       &request->deadline_ms)) {
      return Status::InvalidArgument(
          "usage: SCOREN <day> <n> <stock>... [DEADLINE <ms>]");
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown command: ", cmd);
}

// Overload-safety wire mapping: shed/draining/deadline outcomes get their
// own first tokens so clients can branch without parsing prose.
Reply ErrorReplyFor(const Request& request, const Status& status) {
  Reply reply;
  reply.id = request.id;
  switch (status.code()) {
    case StatusCode::kUnavailable:
      if (StartsWith(status.message(), "draining")) {
        reply.kind = Reply::Kind::kDraining;
        return reply;
      }
      reply.kind = Reply::Kind::kBusy;
      reply.text = status.message();
      return reply;
    case StatusCode::kDeadlineExceeded:
      reply.kind = Reply::Kind::kErr;
      reply.text = "deadline exceeded: " + status.message();
      return reply;
    default:
      reply.kind = Reply::Kind::kErr;
      reply.text = status.ToString();
      return reply;
  }
}

// Reply formatting runs once per served request; these appenders keep it
// to a handful of in-place writes instead of an ostringstream.
void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void AppendScore(std::string* out, float score) {
  char buf[32];
  const int n =
      std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(score));
  out->append(buf, static_cast<size_t>(n));
}

void AppendStale(std::string* out, bool stale) {
  if (stale) out->append(" STALE");
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kServing: return "SERVING";
    case HealthState::kDegraded: return "DEGRADED";
    case HealthState::kDraining: return "DRAINING";
  }
  return "UNKNOWN";
}

std::vector<RankEntry> TopK(const std::vector<float>& scores, int64_t k) {
  const int64_t n = static_cast<int64_t>(scores.size());
  k = std::max<int64_t>(0, std::min(k, n));
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
  });
  std::vector<RankEntry> top;
  top.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    const int64_t stock = order[static_cast<size_t>(i)];
    top.push_back({stock, scores[static_cast<size_t>(stock)]});
  }
  return top;
}

ParsedLine ParseLine(std::string_view text,
                     std::chrono::steady_clock::time_point arrival) {
  ParsedLine line;
  line.arrival = arrival;
  // The id is stored as soon as it is read, so the reply to a parse error
  // can still echo it; it stays 0 when the line is unframed or unreadable.
  const std::vector<std::string_view> parts = Tokenize(text);
  if (parts.size() < 2 || parts[0] != "2" ||
      !ParseInt(parts[1], &line.request.id) || parts.size() < 3) {
    line.status = Status::InvalidArgument(
        "malformed v2 frame (want: 2 <id> <verb> ...)");
  } else {
    line.status = ParseVerb(parts, 2, &line.request);
  }
  return line;
}

Result<Request> ParseRequest(const std::string& line) {
  ParsedLine parsed = ParseLine(line, /*arrival=*/{});
  RTGCN_RETURN_NOT_OK(parsed.status);
  return std::move(parsed.request);
}

std::string FormatRequest(const Request& request) {
  std::ostringstream out;
  out << "2 " << request.id << ' ';
  switch (request.verb) {
    case Request::Verb::kPing: out << "PING"; break;
    case Request::Verb::kHealth: out << "HEALTH"; break;
    case Request::Verb::kStats: out << "STATS"; break;
    case Request::Verb::kQuit: out << "QUIT"; break;
    case Request::Verb::kScore:
      out << "SCORE " << request.day << ' ' << request.stock;
      break;
    case Request::Verb::kRank:
      out << "RANK " << request.day << ' ' << request.k;
      break;
    case Request::Verb::kScoreBatch:
      out << "SCOREN " << request.day << ' ' << request.stocks.size();
      for (int64_t stock : request.stocks) out << ' ' << stock;
      break;
  }
  const bool takes_deadline = request.verb == Request::Verb::kScore ||
                              request.verb == Request::Verb::kRank ||
                              request.verb == Request::Verb::kScoreBatch;
  if (takes_deadline && request.deadline_ms > 0) {
    out << " DEADLINE " << request.deadline_ms;
  }
  return out.str();
}

std::string FormatReply(const Reply& reply) {
  std::string out;
  out.reserve(64);
  out.append("2 ");
  AppendUint(&out, reply.id);
  out.push_back(' ');
  switch (reply.kind) {
    case Reply::Kind::kPong:
      out.append("PONG");
      break;
    case Reply::Kind::kScore:
      out.append("OK ");
      AppendInt(&out, reply.score.model_version);
      out.push_back(' ');
      AppendScore(&out, reply.score.score);
      out.push_back(' ');
      AppendInt(&out, reply.score.rank);
      out.push_back(' ');
      AppendInt(&out, reply.score.num_stocks);
      AppendStale(&out, reply.score.stale);
      break;
    case Reply::Kind::kRank:
      out.append("OK ");
      AppendInt(&out, reply.model_version);
      out.push_back(' ');
      AppendInt(&out, reply.k);
      for (const RankEntry& e : reply.top) {
        out.push_back(' ');
        AppendInt(&out, e.stock);
        out.push_back(':');
        AppendScore(&out, e.score);
      }
      AppendStale(&out, reply.stale);
      break;
    case Reply::Kind::kScoreBatch:
      out.append("OK ");
      AppendInt(&out, reply.model_version);
      out.push_back(' ');
      AppendUint(&out, reply.batch.size());
      for (size_t i = 0; i < reply.batch.size(); ++i) {
        out.push_back(' ');
        AppendInt(&out, reply.batch_stocks[i]);
        out.push_back(':');
        AppendScore(&out, reply.batch[i].score);
        out.push_back(':');
        AppendInt(&out, reply.batch[i].rank);
      }
      AppendStale(&out, reply.stale);
      break;
    case Reply::Kind::kHealth:
      out.append("OK ");
      out.append(reply.text);
      break;
    case Reply::Kind::kStats:
      out.append(reply.text);
      out.append("END");
      break;
    case Reply::Kind::kErr:
      out.append("ERR ");
      out.append(reply.text);
      break;
    case Reply::Kind::kBusy:
      out.append("BUSY ");
      out.append(reply.text);
      break;
    case Reply::Kind::kDraining:
      out.append("DRAINING");
      break;
  }
  return out;
}

Result<Reply> ParseReply(const std::string& line, const Request& sent) {
  Reply reply;
  const std::vector<std::string_view> parts = Tokenize(line);
  if (parts.size() < 3 || parts[0] != "2" || !ParseInt(parts[1], &reply.id)) {
    return Status::Internal("malformed reply frame: ", line);
  }
  const std::string_view head = parts[2];
  // Free-text payloads (error detail, health line, first STATS body line)
  // are everything after the head token, byte for byte.
  const auto text_after_head = [&] {
    return parts.size() > 3
               ? line.substr(static_cast<size_t>(parts[3].data() - line.data()))
               : std::string();
  };
  if (head == "PONG") {
    reply.kind = Reply::Kind::kPong;
    return reply;
  }
  if (head == "DRAINING") {
    reply.kind = Reply::Kind::kDraining;
    return reply;
  }
  if (head == "BUSY" || head == "ERR") {
    reply.kind = head == "BUSY" ? Reply::Kind::kBusy : Reply::Kind::kErr;
    reply.text = text_after_head();
    return reply;
  }
  if (sent.verb == Request::Verb::kStats) {
    reply.kind = Reply::Kind::kStats;
    reply.text =
        line.substr(static_cast<size_t>(head.data() - line.data()));
    return reply;
  }
  if (head != "OK") return Status::Internal("malformed reply: ", line);

  // OK payload: shape depends on what was asked.
  const auto tail_is_stale = [&](size_t payload_end) {
    return parts.size() > payload_end && parts.back() == "STALE";
  };
  switch (sent.verb) {
    case Request::Verb::kHealth:
      reply.kind = Reply::Kind::kHealth;
      reply.text = text_after_head();
      return reply;
    case Request::Verb::kScore: {
      // OK <version> <score> <rank> <n> [STALE]
      reply.kind = Reply::Kind::kScore;
      if (parts.size() < 7 || !ParseInt(parts[3], &reply.score.model_version) ||
          !ParseFloat(parts[4], &reply.score.score) ||
          !ParseInt(parts[5], &reply.score.rank) ||
          !ParseInt(parts[6], &reply.score.num_stocks)) {
        return Status::Internal("malformed SCORE reply: ", line);
      }
      reply.score.stale = tail_is_stale(7);
      return reply;
    }
    case Request::Verb::kRank: {
      // OK <version> <k> <stock>:<score>... [STALE]
      reply.kind = Reply::Kind::kRank;
      if (parts.size() < 5 || !ParseInt(parts[3], &reply.model_version) ||
          !ParseInt(parts[4], &reply.k) || reply.k < 0) {
        return Status::Internal("malformed RANK reply: ", line);
      }
      if (parts.size() < 5 + static_cast<size_t>(reply.k)) {
        return Status::Internal("truncated RANK reply: ", line);
      }
      reply.top.reserve(static_cast<size_t>(reply.k));
      for (int64_t i = 0; i < reply.k; ++i) {
        const std::string_view entry = parts[5 + static_cast<size_t>(i)];
        const size_t colon = entry.find(':');
        RankEntry e;
        if (colon == std::string_view::npos ||
            !ParseInt(entry.substr(0, colon), &e.stock) ||
            !ParseFloat(entry.substr(colon + 1), &e.score)) {
          return Status::Internal("malformed RANK entry: ", entry);
        }
        reply.top.push_back(e);
      }
      reply.stale = tail_is_stale(5 + static_cast<size_t>(reply.k));
      return reply;
    }
    case Request::Verb::kScoreBatch: {
      // OK <version> <n> <stock>:<score>:<rank>... [STALE]
      reply.kind = Reply::Kind::kScoreBatch;
      int64_t n = 0;
      if (parts.size() < 5 || !ParseInt(parts[3], &reply.model_version) ||
          !ParseInt(parts[4], &n) || n < 0 ||
          parts.size() < 5 + static_cast<size_t>(n)) {
        return Status::Internal("malformed SCOREN reply: ", line);
      }
      reply.stale = tail_is_stale(5 + static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        const std::string_view entry = parts[5 + static_cast<size_t>(i)];
        const size_t c1 = entry.find(':');
        const size_t c2 = c1 == std::string_view::npos
                              ? c1
                              : entry.find(':', c1 + 1);
        ScoreReply s;
        s.model_version = reply.model_version;
        s.stale = reply.stale;
        int64_t stock = 0;
        if (c2 == std::string_view::npos ||
            !ParseInt(entry.substr(0, c1), &stock) ||
            !ParseFloat(entry.substr(c1 + 1, c2 - c1 - 1), &s.score) ||
            !ParseInt(entry.substr(c2 + 1), &s.rank)) {
          return Status::Internal("malformed SCOREN entry: ", entry);
        }
        reply.batch_stocks.push_back(stock);
        reply.batch.push_back(s);
      }
      return reply;
    }
    default:
      return Status::Internal("unexpected OK reply: ", line);
  }
}

std::optional<std::string> ExecuteRequest(InferenceServer* server,
                                          Metrics* metrics,
                                          const ParsedLine& line,
                                          bool may_wait) {
  obs::Span span("serve.handle_line", "serve");
  const Request& request = line.request;
  Reply reply;
  reply.id = request.id;
  if (!line.status.ok()) {
    reply.kind = Reply::Kind::kErr;
    reply.text = line.status.message();
    return FormatReply(reply);
  }
  // The relative DEADLINE becomes one absolute deadline, once, here. One
  // too far out for the clock to represent means none.
  RequestOptions options;
  options.arrival = line.arrival;
  const auto horizon = std::chrono::duration_cast<std::chrono::milliseconds>(
      options.deadline - line.arrival);
  if (request.deadline_ms > 0 && request.deadline_ms < horizon.count()) {
    options.deadline =
        line.arrival + std::chrono::milliseconds(request.deadline_ms);
  }
  switch (request.verb) {
    case Request::Verb::kQuit:
      return "";  // front ends close the connection; nothing on the wire
    case Request::Verb::kPing:
      reply.kind = Reply::Kind::kPong;
      return FormatReply(reply);
    case Request::Verb::kHealth:
      reply.kind = Reply::Kind::kHealth;
      reply.text = server->HealthLine();
      return FormatReply(reply);
    case Request::Verb::kStats: {
      // Serving metrics first (stable field set), then whatever the rest
      // of the process published to the global registry — both render
      // through obs::Registry.
      reply.kind = Reply::Kind::kStats;
      std::string text = metrics ? metrics->DumpText() : "";
      text += obs::Registry::Global().DumpText();
      reply.text = std::move(text);
      return FormatReply(reply);
    }
    case Request::Verb::kRank: {
      auto result = server->Rank(request.day, options, may_wait);
      if (!result) return std::nullopt;
      if (!result->ok()) {
        return FormatReply(ErrorReplyFor(request, result->status()));
      }
      const RankReply& rank = result->ValueOrDie();
      reply.kind = Reply::Kind::kRank;
      reply.model_version = rank.model_version;
      reply.stale = rank.stale;
      reply.k = std::clamp<int64_t>(request.k, 0, rank.scores.size());
      reply.top = TopK(rank.scores, reply.k);
      return FormatReply(reply);
    }
    case Request::Verb::kScore:
    case Request::Verb::kScoreBatch: {
      // One request answers every stock of the line from one day's scores.
      const bool single = request.verb == Request::Verb::kScore;
      auto result = server->ScoreBatch(
          request.day,
          single ? std::span<const int64_t>(&request.stock, 1)
                 : std::span<const int64_t>(request.stocks),
          options, may_wait);
      if (!result) return std::nullopt;
      if (!result->ok()) {
        return FormatReply(ErrorReplyFor(request, result->status()));
      }
      std::vector<ScoreReply> scores = result->MoveValueOrDie();
      if (single) {
        reply.kind = Reply::Kind::kScore;
        reply.score = scores.front();
        return FormatReply(reply);
      }
      reply.kind = Reply::Kind::kScoreBatch;
      // ParseRequest admits SCOREN only with at least one stock.
      reply.model_version = scores.front().model_version;
      reply.stale = scores.front().stale;
      reply.batch = std::move(scores);
      reply.batch_stocks = request.stocks;
      return FormatReply(reply);
    }
  }
  reply.kind = Reply::Kind::kErr;
  reply.text = "unknown command";
  return FormatReply(reply);
}

std::string ExecuteLine(InferenceServer* server, Metrics* metrics,
                        const std::string& line) {
  return *ExecuteRequest(server, metrics, ParseLine(line), /*may_wait=*/true);
}

bool TryExecuteLineFast(InferenceServer* server, Metrics* metrics,
                        const std::string& line, std::string* reply) {
  std::optional<std::string> answered = ExecuteRequest(
      server, metrics, ParseLine(line), /*may_wait=*/false);
  if (!answered) return false;
  *reply = std::move(*answered);
  return true;
}

}  // namespace rtgcn::serve
