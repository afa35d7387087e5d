#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>
#include <utility>

#include "common/strings.h"

namespace rtgcn::serve {

namespace {

void SetSocketTimeout(int fd, int optname, int64_t ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv));
}

// Reply payload past the "2 <id> " frame, for transport-level
// classification (BUSY/DRAINING). The front end's connection-cap BUSY is
// written before any request and carries no frame.
std::string_view PayloadOf(const std::string& line) {
  std::string_view v(line);
  if (!StartsWith(line, "2 ")) return v;
  const size_t sp = v.find(' ', 2);
  if (sp == std::string_view::npos) return v;
  return v.substr(sp + 1);
}

}  // namespace

Client::Client(Options options, Metrics* metrics)
    : options_(options), metrics_(metrics), rng_(options.seed) {
  options_.max_attempts = std::max(options_.max_attempts, 1);
  options_.backoff_initial_ms = std::max<int64_t>(options_.backoff_initial_ms, 1);
  options_.backoff_max_ms =
      std::max(options_.backoff_max_ms, options_.backoff_initial_ms);
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status Client::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket: ", std::strerror(errno));
  // Non-blocking connect bounded by connect_timeout_ms — a dead or
  // overwhelmed listener fails the attempt instead of hanging the caller.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(std::max<int64_t>(options_.connect_timeout_ms, 1)));
    if (ready <= 0) {
      ::close(fd);
      return Status::Unavailable("connect to 127.0.0.1:", options_.port,
                                 " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    rc = (err == 0) ? 0 : -1;
    errno = err;
  }
  if (rc != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect to 127.0.0.1:", options_.port, ": ",
                               detail);
  }
  ::fcntl(fd, F_SETFL, flags);
  SetSocketTimeout(fd, SO_RCVTIMEO, options_.recv_timeout_ms);
  SetSocketTimeout(fd, SO_SNDTIMEO, options_.send_timeout_ms);
  fd_ = fd;
  buffer_.clear();
  return Status::OK();
}

Status Client::SendLine(const std::string& line) {
  const std::string wire = line + "\n";
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IoError("send: ", std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> Client::ReadLine() {
  for (;;) {
    const size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      std::string line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n == 0) return Status::IoError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("no reply within ",
                                        options_.recv_timeout_ms, "ms");
      }
      return Status::IoError("read: ", std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void Client::Backoff(int attempt) {
  // Exponential backoff, capped, with multiplicative jitter in [0.5, 1.0]
  // so a fleet of retrying clients decorrelates instead of thundering
  // back in lockstep.
  int64_t backoff = options_.backoff_initial_ms;
  for (int i = 1; i < attempt && backoff < options_.backoff_max_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.backoff_max_ms);
  const double jitter = 0.5 + 0.5 * rng_.Uniform();
  std::this_thread::sleep_for(std::chrono::milliseconds(
      std::max<int64_t>(1, static_cast<int64_t>(backoff * jitter))));
}

Result<std::string> Client::RoundTrip(const std::string& line) {
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempt > 1) {
      ++retries_;
      if (metrics_) {
        metrics_->client_retries.Increment();
      }
      Backoff(attempt - 1);
    }
    const Status connected = EnsureConnected();
    if (!connected.ok()) {
      last = connected;
      continue;
    }
    const Status sent = SendLine(line);
    if (!sent.ok()) {
      Close();
      last = sent;
      continue;
    }
    auto reply = ReadLine();
    if (!reply.ok()) {
      // Lost or timed-out reply: the connection's request/response framing
      // is now ambiguous, so reconnect before retrying.
      Close();
      last = reply.status();
      continue;
    }
    const std::string& r = reply.ValueOrDie();
    const std::string_view payload = PayloadOf(r);
    if (StartsWith(payload, "BUSY")) {
      last = Status::Unavailable(r);
      if (!options_.retry_busy) return last;
      continue;  // the connection itself is fine — back off and retry
    }
    if (StartsWith(payload, "DRAINING")) {
      return Status::Unavailable("draining: server is stopping");
    }
    return r;
  }
  return Status(last.code(), last.message() + " (after " +
                                 std::to_string(options_.max_attempts) +
                                 " attempts)");
}

Result<std::string> Client::Health() {
  Request request;
  request.verb = Request::Verb::kHealth;
  RTGCN_ASSIGN_OR_RETURN(Reply reply, Call(std::move(request)));
  return std::move(reply.text);
}

Result<std::string> Client::Stats() {
  Request request;
  request.verb = Request::Verb::kStats;
  RTGCN_ASSIGN_OR_RETURN(Reply reply, Call(std::move(request)));
  // The frame carries the first body line; the rest follow unframed.
  std::string text;
  std::string line = std::move(reply.text);
  while (line != "END") {
    text += line;
    text += '\n';
    auto next = ReadLine();
    if (!next.ok()) {
      Close();
      return next.status();
    }
    line = next.MoveValueOrDie();
  }
  return text;
}

Result<Reply> Client::Call(Request request) {
  request.id = next_id_++;
  auto raw = RoundTrip(FormatRequest(request));
  if (!raw.ok()) return raw.status();
  RTGCN_ASSIGN_OR_RETURN(Reply reply,
                         ParseReply(raw.ValueOrDie(), request));
  if (reply.id != request.id) {
    return Status::Internal("reply id ", reply.id, " does not match request ",
                            request.id);
  }
  if (reply.kind == Reply::Kind::kErr) {
    // Preserve the legacy status spelling: the full "ERR ..." line text.
    const std::string line = "ERR " + reply.text;
    if (StartsWith(reply.text, "deadline exceeded")) {
      return Status::DeadlineExceeded(line);
    }
    return Status::Internal(line);
  }
  return reply;
}

Result<ScoreReply> Client::Score(int64_t day, int64_t stock,
                                 int64_t deadline_ms) {
  Request request;
  request.verb = Request::Verb::kScore;
  request.day = day;
  request.stock = stock;
  request.deadline_ms = deadline_ms;
  RTGCN_ASSIGN_OR_RETURN(Reply reply, Call(std::move(request)));
  return reply.score;
}

Result<Client::RankResult> Client::Rank(int64_t day, int64_t k,
                                        int64_t deadline_ms) {
  Request request;
  request.verb = Request::Verb::kRank;
  request.day = day;
  request.k = k;
  request.deadline_ms = deadline_ms;
  RTGCN_ASSIGN_OR_RETURN(Reply reply, Call(std::move(request)));
  RankResult result;
  result.model_version = reply.model_version;
  result.top = std::move(reply.top);
  result.stale = reply.stale;
  return result;
}

Result<std::vector<ScoreReply>> Client::ScoreBatch(
    int64_t day, const std::vector<int64_t>& stocks, int64_t deadline_ms) {
  Request request;
  request.verb = Request::Verb::kScoreBatch;
  request.day = day;
  request.stocks = stocks;
  request.deadline_ms = deadline_ms;
  RTGCN_ASSIGN_OR_RETURN(Reply reply, Call(std::move(request)));
  if (reply.batch.size() != stocks.size()) {
    return Status::Internal("SCOREN reply has ", reply.batch.size(),
                            " entries, want ", stocks.size());
  }
  return std::move(reply.batch);
}

}  // namespace rtgcn::serve
