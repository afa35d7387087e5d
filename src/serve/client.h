// Line-protocol client with connect/read/send timeouts and bounded retry.
//
// Every call frames its request as "2 <id> <VERB> ..." with a fresh id
// and checks that the reply echoes it (serve/protocol.h).
//
// A Client owns one loopback connection to an AsyncServer and re-issues a
// request — with exponential backoff plus jitter — when the server replies
// BUSY (admission shed) or the connection fails (connect error, send
// error, read timeout, reset). Scoring queries are read-only and
// idempotent, so retrying after a lost reply is safe. DRAINING replies
// are returned immediately without retry: a draining server is going
// away, and hammering it defeats the drain.
//
// Every timeout is bounded, so a caller can never hang on a hostile or
// chaos-injected server — the worst case is max_attempts * (timeouts +
// backoff). Retries are counted in Metrics::client_retries when a Metrics
// is attached. Not thread-safe: use one Client per thread.
#ifndef RTGCN_SERVE_CLIENT_H_
#define RTGCN_SERVE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "serve/metrics.h"
#include "serve/protocol.h"

namespace rtgcn::serve {

class Client {
 public:
  struct Options {
    int port = 0;
    int64_t connect_timeout_ms = 1000;
    int64_t recv_timeout_ms = 5000;   ///< per-read bound (dropped replies)
    int64_t send_timeout_ms = 5000;
    int max_attempts = 4;             ///< total tries, first one included
    int64_t backoff_initial_ms = 5;   ///< doubled per retry, jittered
    int64_t backoff_max_ms = 200;
    uint64_t seed = 1;                ///< backoff jitter stream
    bool retry_busy = true;           ///< false: surface BUSY immediately
  };

  // Requests are formatted and replies parsed by serve/protocol.h — the
  // client shares one grammar implementation with the servers.
  struct RankResult {
    int64_t model_version = -1;
    std::vector<RankEntry> top;
    bool stale = false;
  };

  /// `metrics` may be null; when set, retries feed serve.client_retries.
  explicit Client(Options options, Metrics* metrics = nullptr);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// SCORE <day> <stock> [DEADLINE <ms>] (deadline_ms 0 = none).
  Result<ScoreReply> Score(int64_t day, int64_t stock,
                           int64_t deadline_ms = 0);

  /// RANK <day> <k> [DEADLINE <ms>].
  Result<RankResult> Rank(int64_t day, int64_t k, int64_t deadline_ms = 0);

  /// SCOREN: several stocks of one day in one round trip. Results are
  /// aligned with `stocks`.
  Result<std::vector<ScoreReply>> ScoreBatch(
      int64_t day, const std::vector<int64_t>& stocks,
      int64_t deadline_ms = 0);

  /// HEALTH -> "SERVING version=..." / "DEGRADED ..." / "DRAINING ...".
  Result<std::string> Health();

  /// STATS -> the full multi-line metrics dump (END stripped).
  Result<std::string> Stats();

  void Close();
  bool connected() const { return fd_ >= 0; }
  uint64_t retries() const { return retries_; }
  const Options& options() const { return options_; }

 private:
  Status EnsureConnected();
  Status SendLine(const std::string& line);
  Result<std::string> ReadLine();
  void Backoff(int attempt);
  /// Sends one line and returns the reply line, applying the retry policy.
  /// BUSY replies and connection failures retry with backoff; DRAINING
  /// returns Unavailable without retry; ERR replies are returned verbatim
  /// (they are valid protocol replies, not transport failures).
  Result<std::string> RoundTrip(const std::string& line);
  /// Stamps a fresh id onto `request`, round-trips it, parses the reply,
  /// and maps protocol-level errors (ERR ...) onto Status.
  Result<Reply> Call(Request request);

  Options options_;
  Metrics* metrics_;
  Rng rng_;
  int fd_ = -1;
  std::string buffer_;
  uint64_t retries_ = 0;
  uint64_t next_id_ = 1;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_CLIENT_H_
