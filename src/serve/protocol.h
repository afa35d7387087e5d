// Versioned typed wire protocol for the serving tier (DESIGN.md §15).
//
// This header is the single source of truth for the request/reply surface:
// the epoll AsyncServer parses with ParseRequest and formats with
// FormatReply, and serve::Client formats with FormatRequest and parses
// with ParseReply — there is exactly one grammar implementation on each
// side of the wire.
//
// Protocol v1 (the PR 4/8 line protocol) is kept byte-compatible as a
// compatibility shim; see DESIGN.md §15 for its deprecation note:
//
//   PING                              -> PONG
//   HEALTH                            -> OK SERVING|DEGRADED|DRAINING ...
//   STATS                             -> metrics text ..., END
//   SCORE <day> <stock> [DEADLINE ms] -> OK <ver> <score> <rank> <n> [STALE]
//   RANK <day> <k> [DEADLINE ms]      -> OK <ver> <k> <stock>:<score>... [STALE]
//
// Protocol v2 adds explicit framing, request ids (pipelining/batching), a
// batched score verb, and negotiation carrying version metadata:
//
//   PROTO [<v>]        -> OK PROTO <v> SHARDS 1 VERSION <ver>
//   2 <id> PING        -> 2 <id> PONG
//   2 <id> HEALTH      -> 2 <id> OK <health line>
//   2 <id> SCORE <day> <stock> [DEADLINE ms]
//                      -> 2 <id> OK <ver> <score> <rank> <n> [STALE]
//   2 <id> RANK <day> <k> [DEADLINE ms]
//                      -> 2 <id> OK <ver> <k> <stock>:<score>... [STALE]
//   2 <id> SCOREN <day> <n> <stock>... [DEADLINE ms]
//                      -> 2 <id> OK <ver> <n> <stock>:<score>:<rank>... [STALE]
//   errors             -> 2 <id> ERR ... | 2 <id> BUSY ... | 2 <id> DRAINING
//
// The id is chosen by the client and echoed verbatim, so a client may
// write many v2 requests in one send and match replies without relying on
// ordering (the front end does reply in request order per connection).
//
// The PROTO ack's SHARDS field is always 1: the server has one backend.
// It stays on the wire because serve::Client::Negotiate parses it.
//
// Scores are printed with %.9g, which round-trips binary float32 exactly —
// replies compare bit-for-bit against a local forward pass.
#ifndef RTGCN_SERVE_PROTOCOL_H_
#define RTGCN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/metrics.h"

namespace rtgcn::serve {

/// Lowest and highest wire protocol versions this build speaks.
inline constexpr int kProtoMin = 1;
inline constexpr int kProtoMax = 2;

/// Health state machine of a serving process (HEALTH wire command).
enum class HealthState {
  kServing,   ///< a snapshot is published and reloads are healthy
  kDegraded,  ///< no snapshot, or reload failures crossed the threshold
  kDraining,  ///< Stop() ran (or Start() never did): no new work admitted
};

const char* HealthStateName(HealthState state);

/// Per-request options (the wire protocol's optional DEADLINE suffix).
struct RequestOptions {
  int64_t deadline_ms = 0;  ///< shed if not executing within this; 0 = none
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

/// \brief One parsed request line, protocol version included.
struct Request {
  enum class Verb {
    kPing,
    kHealth,
    kStats,
    kScore,
    kRank,
    kScoreBatch,  ///< v2 SCOREN: several stocks of one day in one line
    kProto,       ///< negotiation: report protocol/version metadata
    kQuit,
  };

  int proto = 1;     ///< wire framing the line arrived under (1 or 2)
  uint64_t id = 0;   ///< v2 request id, echoed in the reply (0 under v1)
  Verb verb = Verb::kPing;
  int64_t day = 0;
  int64_t stock = 0;             ///< kScore
  std::vector<int64_t> stocks;   ///< kScoreBatch
  int64_t k = 0;                 ///< kRank
  int64_t deadline_ms = 0;       ///< 0 = no deadline
  int proto_version = 0;         ///< kProto operand; 0 = highest supported
};

/// \brief One reply, typed; FormatReply renders the wire line.
struct Reply {
  enum class Kind {
    kPong,
    kScore,
    kRank,
    kScoreBatch,
    kHealth,
    kProtoAck,
    kStats,     ///< multi-line: text already contains trailing newline(s)
    kErr,
    kBusy,
    kDraining,
  };

  int proto = 1;
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

  int proto_version = kProtoMax;    ///< kProtoAck
  int64_t shards = 1;               ///< kProtoAck (always 1 on the wire)
  int64_t current_version = -1;     ///< kProtoAck
};

/// Formats a float32 so it round-trips bit-exactly (%.9g).
std::string FormatScoreValue(float score);

/// Top-k of a full score vector: score descending, ties by stock id
/// ascending — the canonical ranking order every reply path uses.
std::vector<RankEntry> TopK(const std::vector<float>& scores, int64_t k);

/// Parses one request line (either protocol). The error message of a
/// malformed line is exactly the legacy wire text (e.g. "usage: SCORE
/// <day> <stock> [DEADLINE <ms>]"); servers prepend "ERR ".
Result<Request> ParseRequest(const std::string& line);

/// Renders a request as a wire line under `request.proto` framing.
std::string FormatRequest(const Request& request);

/// Renders a reply as a wire line (kStats renders body + "END").
std::string FormatReply(const Reply& reply);

/// Parses a reply line. `sent` tells the parser which request produced it
/// (v1 OK payloads are not self-describing). STATS bodies are read
/// line-by-line by the caller (ParseReply only sees the first line).
Result<Reply> ParseReply(const std::string& line, const Request& sent);

/// Executes one wire line against `server` — the single server-side
/// dispatch. `metrics` may be null. kQuit returns the empty string
/// (connection teardown is the front end's job).
std::string ExecuteLine(InferenceServer* server, Metrics* metrics,
                        const std::string& line);

/// Non-blocking variant: true when the line was answered entirely from
/// cached scores (reply stored in *reply); false when it needs the
/// blocking ExecuteLine path. Safe to call on an event loop.
bool TryExecuteLineFast(InferenceServer* server, Metrics* metrics,
                        const std::string& line, std::string* reply);

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_PROTOCOL_H_
