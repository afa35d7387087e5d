// Typed wire protocol for the serving tier (DESIGN.md §15).
//
// This header is the single source of truth for the request/reply surface:
// the epoll AsyncServer parses each line once with ParseLine and formats
// with FormatReply, and serve::Client formats with FormatRequest and parses
// with ParseReply — there is exactly one grammar implementation on each
// side of the wire.
//
// Every request line is framed as "2 <id> <VERB> ...": the leading 2 is
// the protocol version and <id> is chosen by the client and echoed
// verbatim in the reply.
//
//   2 <id> PING        -> 2 <id> PONG
//   2 <id> HEALTH      -> 2 <id> OK SERVING|DEGRADED|DRAINING version=...
//   2 <id> STATS       -> 2 <id> <metrics text ...>, END
//   2 <id> SCORE <day> <stock> [DEADLINE ms]
//                      -> 2 <id> OK <ver> <score> <rank> <n> [STALE]
//   2 <id> RANK <day> <k> [DEADLINE ms]
//                      -> 2 <id> OK <ver> <k> <stock>:<score>... [STALE]
//   2 <id> SCOREN <day> <n> <stock>... [DEADLINE ms]
//                      -> 2 <id> OK <ver> <n> <stock>:<score>:<rank>... [STALE]
//   2 <id> QUIT        -> (connection closed, no reply)
//   errors             -> 2 <id> ERR ... | 2 <id> BUSY ... | 2 <id> DRAINING
//
// A line that is not framed, or whose id cannot be read, is answered
// "2 0 ERR <usage>" and the connection stays open. Because every reply
// echoes its id, a client may write many requests in one send and match
// replies without relying on ordering (the front end does reply in
// request order per connection).
//
// Scores are printed with %.9g, which round-trips binary float32 exactly —
// replies compare bit-for-bit against a local forward pass.
#ifndef RTGCN_SERVE_PROTOCOL_H_
#define RTGCN_SERVE_PROTOCOL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serve/metrics.h"

namespace rtgcn::serve {

/// Health state machine of a serving process (HEALTH wire command).
enum class HealthState {
  kServing,   ///< a snapshot is published and reloads are healthy
  kDegraded,  ///< no snapshot, or reload failures crossed the threshold
  kDraining,  ///< Stop() ran (or Start() never did): no new work admitted
};

const char* HealthStateName(HealthState state);

/// Per-request options.
struct RequestOptions {
  /// Absolute time after which the request is shed (DeadlineExceeded)
  /// instead of being answered or waiting any longer; max() = none.
  /// ExecuteRequest computes it once, from the line's arrival plus its
  /// DEADLINE <ms>; in-process callers compute it from now().
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// When the request arrived; serve.latency_us runs from it.
  /// ExecuteRequest passes the line's arrival, so time queued behind the
  /// connection's earlier lines or for an executor counts; in-process
  /// callers arrive when they build the options.
  std::chrono::steady_clock::time_point arrival =
      std::chrono::steady_clock::now();
};

/// All-stock scores for one day, plus the model version that produced them.
struct RankReply {
  int64_t model_version = -1;
  int64_t day = -1;
  std::vector<float> scores;  ///< [N], index = stock id
  bool stale = false;         ///< served while DEGRADED
};

/// One stock's score and its rank (0 = best) among that day's scores.
struct ScoreReply {
  int64_t model_version = -1;
  float score = 0;
  int64_t rank = -1;
  int64_t num_stocks = 0;
  bool stale = false;
};

/// One (stock, score) pair of a top-k ranking.
struct RankEntry {
  int64_t stock = -1;
  float score = 0;
};

class InferenceServer;  // serve/server.h

/// \brief One parsed request line.
struct Request {
  enum class Verb {
    kPing,
    kHealth,
    kStats,
    kScore,
    kRank,
    kScoreBatch,  ///< SCOREN: several stocks of one day in one line
    kQuit,
  };

  uint64_t id = 0;   ///< request id, echoed in the reply
  Verb verb = Verb::kPing;
  int64_t day = 0;
  int64_t stock = 0;             ///< kScore
  std::vector<int64_t> stocks;   ///< kScoreBatch
  int64_t k = 0;                 ///< kRank
  int64_t deadline_ms = 0;       ///< DEADLINE <ms> from arrival; 0 = none
};

/// \brief One reply, typed; FormatReply renders the wire line.
struct Reply {
  enum class Kind {
    kPong,
    kScore,
    kRank,
    kScoreBatch,
    kHealth,
    kStats,     ///< multi-line: text already contains trailing newline(s)
    kErr,
    kBusy,
    kDraining,
  };

  /// Ignored: every reply is framed. Kept only because perfbench/serve.cc
  /// (which must not change) still assigns it.
  int proto = 2;
  uint64_t id = 0;
  Kind kind = Kind::kErr;
  std::string text;        ///< health line / stats body / error detail

  ScoreReply score;                 ///< kScore
  std::vector<int64_t> batch_stocks;///< kScoreBatch, aligned with batch
  std::vector<ScoreReply> batch;    ///< kScoreBatch
  int64_t k = 0;                    ///< kRank: entries requested (clamped)
  std::vector<RankEntry> top;       ///< kRank
  int64_t model_version = -1;       ///< kRank/kScoreBatch
  bool stale = false;               ///< kRank/kScoreBatch
};

/// Top-k of a full score vector: score descending, ties by stock id
/// ascending — the canonical ranking order every reply path uses.
std::vector<RankEntry> TopK(const std::vector<float>& scores, int64_t k);

/// Parses one framed request line. The error message of a malformed line
/// is the wire text (e.g. "usage: SCORE <day> <stock> [DEADLINE <ms>]");
/// servers prepend "2 <id> ERR ".
Result<Request> ParseRequest(const std::string& line);

/// Renders a request as a framed wire line.
std::string FormatRequest(const Request& request);

/// Renders a reply as a framed wire line (kStats renders body + "END").
std::string FormatReply(const Reply& reply);

/// Parses a framed reply line. `sent` tells the parser which request
/// produced it (OK payloads are not self-describing). For STATS only the
/// first line is parsed — its text is the first body line, or "END" — and
/// the caller reads the rest of the body line by line.
Result<Reply> ParseReply(const std::string& line, const Request& sent);

/// \brief One wire line, parsed once when the front end frames it.
struct ParsedLine {
  Request request;  ///< its id is read even when the rest does not parse
  Status status;    ///< the parse outcome; an error's message is wire text
  /// When the line was framed; a DEADLINE <ms> runs from it.
  std::chrono::steady_clock::time_point arrival;
};

/// ParseRequest, keeping the id of a line that fails, stamped `arrival`.
ParsedLine ParseLine(std::string_view text,
                     std::chrono::steady_clock::time_point arrival =
                         std::chrono::steady_clock::now());

/// Executes one parsed line against `server` — the single server-side
/// dispatch. `metrics` (may be null) feeds STATS. A line that did not
/// parse is answered "2 <id> ERR <usage>", with id 0 when it is unframed
/// or its id cannot be read; kQuit answers "" (the front end closes the
/// connection). With `may_wait` false (an event loop) a request the server
/// could answer only by waiting returns std::nullopt, counting nothing.
std::optional<std::string> ExecuteRequest(InferenceServer* server,
                                          Metrics* metrics,
                                          const ParsedLine& line,
                                          bool may_wait);

/// ExecuteRequest(ParseLine(line), may_wait = true).
std::string ExecuteLine(InferenceServer* server, Metrics* metrics,
                        const std::string& line);

/// ExecuteRequest(ParseLine(line), may_wait = false): true with the reply
/// in *reply when the line was answered without waiting.
bool TryExecuteLineFast(InferenceServer* server, Metrics* metrics,
                        const std::string& line, std::string* reply);

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_PROTOCOL_H_
