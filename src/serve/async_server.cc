#include "serve/async_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace rtgcn::serve {

namespace {

// epoll user data: connection ids, with two reserved sentinels for the
// listener and the wakeup eventfd (real ids start at 1, so they can never
// collide with these).
constexpr uint64_t kListenTag = ~uint64_t{0};
constexpr uint64_t kWakeTag = ~uint64_t{0} - 1;

}  // namespace

AsyncServer::AsyncServer(InferenceServer* server, Metrics* metrics,
                         Options options)
    : server_(server),
      metrics_(metrics),
      options_(options),
      conn_gate_({std::max<int64_t>(options.max_connections, 1),
                  "connections"}) {
  RTGCN_CHECK(server_ != nullptr);
  options_.max_line_bytes = std::max<int64_t>(options_.max_line_bytes, 64);
  options_.executor_threads =
      std::max<int64_t>(options_.executor_threads, 1);
  options_.max_outbox_bytes =
      std::max<int64_t>(options_.max_outbox_bytes, 4096);
  options_.max_pending_lines =
      std::max<int64_t>(options_.max_pending_lines, 1);
}

AsyncServer::~AsyncServer() { Stop(); }

Status AsyncServer::Start() {
  if (started_) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: ", std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind port ", options_.port, ": ", err);
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen: ", err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return Status::IoError("epoll/eventfd: ", err);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stopping_ = false;
  conn_gate_.Reopen();
  started_ = true;
  io_thread_ = std::thread([this] { Loop(); });
  executors_.reserve(static_cast<size_t>(options_.executor_threads));
  for (int64_t i = 0; i < options_.executor_threads; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
  RTGCN_LOG(Info) << "serve: async front end listening on 127.0.0.1:"
                  << port_ << " (" << options_.executor_threads
                  << " executors)";
  return Status::OK();
}

void AsyncServer::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  Wake();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  if (io_thread_.joinable()) io_thread_.join();
  // The IO thread closed every connection on its way out; tear down the
  // listener and loop fds here.
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  if (metrics_) metrics_->conns_active.Set(0);
  started_ = false;
}

void AsyncServer::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(wake_fd_, &one, sizeof(one));  // EAGAIN = already signaled
}

int64_t AsyncServer::queued_lines() {
  std::lock_guard<std::mutex> lock(work_mu_);
  return static_cast<int64_t>(work_.size());
}

void AsyncServer::ExecutorLoop() {
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !work_.empty(); });
      if (work_.empty()) return;  // stopping, queue drained
      work = std::move(work_.front());
      work_.pop_front();
    }
    std::string reply =
        *ExecuteRequest(server_, metrics_, work.line, /*may_wait=*/true);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back({work.conn_id, std::move(reply)});
    }
    Wake();
  }
}

void AsyncServer::Loop() {
  epoll_event events[256];
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 256, 100);
    {
      std::lock_guard<std::mutex> lock(work_mu_);
      if (stopping_) break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      RTGCN_LOG(Warning) << "serve: epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        HandleAccept();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      if (conns_.find(tag) == conns_.end()) continue;  // closed this round
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(tag);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(tag);
      if (conns_.find(tag) != conns_.end() &&
          (events[i].events & EPOLLOUT)) {
        HandleWritable(tag);
      }
    }
    // Completions may have landed between epoll wakeups (the eventfd then
    // makes the next epoll_wait return immediately; this drain is cheap
    // when nothing is pending).
    DrainCompletions();
  }
  // Teardown on the IO thread, where all epoll/fd ownership lives.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
}

void AsyncServer::HandleAccept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient failure — epoll re-arms
    }
    if (!conn_gate_.Admit().ok()) {
      if (metrics_) {
        metrics_->busy_rejected.Increment();
      }
      const char kBusy[] = "BUSY too many connections\n";
      [[maybe_unused]] const ssize_t n =
          ::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (metrics_) {
      metrics_->conns_active.Set(static_cast<double>(conns_.size()));
    }
  }
}

void AsyncServer::HandleReadable(uint64_t id) {
  Conn& conn = conns_[id];
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n == 0) {
      CloseConn(id);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(id);
      return;
    }
    conn.inbuf.append(chunk, static_cast<size_t>(n));
    if (static_cast<ssize_t>(sizeof(chunk)) != n) break;
  }
  IngestInput(id);
}

void AsyncServer::IngestInput(uint64_t id) {
  Conn& conn = conns_[id];
  const auto arrival = std::chrono::steady_clock::now();
  // Scan by offset and drop the consumed prefix once, so a read carrying
  // many pipelined lines moves the buffer once.
  const std::string_view input = conn.inbuf;
  size_t start = 0;
  size_t pos;
  bool oversized = false;
  while (!conn.closing &&
         (pos = input.find('\n', start)) != std::string_view::npos) {
    if (static_cast<int64_t>(pos - start) > options_.max_line_bytes) {
      oversized = true;
      break;
    }
    std::string_view line = input.substr(start, pos - start);
    start = pos + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    conn.lines.push_back(ParseLine(line, arrival));
  }
  conn.inbuf.erase(0, start);
  // A line over the cap, terminated or not (the read buffer is bounded
  // too), is not protocol: reject and drop the connection.
  if (!conn.closing &&
      (oversized ||
       static_cast<int64_t>(conn.inbuf.size()) > options_.max_line_bytes)) {
    if (metrics_) {
      metrics_->oversized_lines.Increment();
    }
    conn.outbuf += "ERR line too long\n";
    conn.closing = true;
    conn.inbuf.clear();
    conn.lines.clear();
  }
  PumpConn(id);
}

void AsyncServer::PumpConn(uint64_t id) {
  // Answer queued lines in order. Stop at the first line that must wait:
  // it goes to the executors and the connection waits for its completion
  // (ordering guarantee — one waiting line in flight per connection).
  while (true) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    if (conn.executing || conn.closing || conn.lines.empty()) break;
    ParsedLine line = std::move(conn.lines.front());
    conn.lines.pop_front();
    std::optional<std::string> reply =
        ExecuteRequest(server_, metrics_, line, /*may_wait=*/false);
    if (!reply) {
      conn.executing = true;
      {
        std::lock_guard<std::mutex> lock(work_mu_);
        work_.push_back({id, std::move(line)});
      }
      work_cv_.notify_one();
      break;
    }
    if (reply->empty()) {  // QUIT
      conn.closing = true;
      break;
    }
    QueueReply(id, *reply);
  }
  if (conns_.find(id) != conns_.end()) {
    FlushConn(id);
    if (conns_.find(id) != conns_.end()) UpdateEvents(id);
  }
}

void AsyncServer::DrainCompletions() {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_);
  }
  for (Completion& c : done) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-request
    it->second.executing = false;
    if (!c.reply.empty()) QueueReply(c.conn_id, c.reply);
    PumpConn(c.conn_id);
  }
}

void AsyncServer::QueueReply(uint64_t id, const std::string& reply) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (chaos_ != nullptr) {
    const std::string wire = reply + "\n";
    const ChaosInjector::ReplyPlan plan = chaos_->PlanReply(wire.size());
    switch (plan.fault) {
      case ChaosInjector::ReplyFault::kDelay:
        // Test-only: stalls the loop for the fault duration (see header).
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan.delay_ms));
        break;
      case ChaosInjector::ReplyFault::kDrop:
        return;  // swallow the reply; the client's read times out
      case ChaosInjector::ReplyFault::kTruncate:
        conn.outbuf += wire.substr(0, plan.truncate_at);
        conn.closing = true;  // drop the connection mid-line after flush
        conn.lines.clear();
        return;
      case ChaosInjector::ReplyFault::kReset:
        conn.closing = true;
        conn.reset_on_close = true;  // RST instead of FIN
        conn.lines.clear();
        conn.outbuf.clear();
        return;
      case ChaosInjector::ReplyFault::kNone:
        break;
    }
  }
  conn.outbuf += reply;
  conn.outbuf += '\n';
}

void AsyncServer::FlushConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  while (!conn.outbuf.empty()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data(),
                             conn.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // Peer is gone (EPIPE/ECONNRESET) — a per-connection error, never a
    // process signal thanks to MSG_NOSIGNAL.
    if (metrics_) {
      metrics_->send_errors.Increment();
    }
    CloseConn(id);
    return;
  }
  if (conn.closing && !conn.executing) CloseConn(id);
}

void AsyncServer::HandleWritable(uint64_t id) {
  FlushConn(id);
  if (conns_.find(id) != conns_.end()) UpdateEvents(id);
}

void AsyncServer::UpdateEvents(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  const bool want_write = !conn.outbuf.empty();
  // Backpressure: stop reading while this connection has too many parsed
  // lines waiting or too many unread reply bytes; the kernel's receive
  // window then throttles the sender.
  const bool overfull =
      static_cast<int64_t>(conn.lines.size()) >=
          options_.max_pending_lines ||
      static_cast<int64_t>(conn.outbuf.size()) >= options_.max_outbox_bytes;
  const bool pause_read = conn.closing || overfull;
  if (want_write == conn.want_write && pause_read == conn.paused_read) {
    return;
  }
  conn.want_write = want_write;
  conn.paused_read = pause_read;
  epoll_event ev{};
  ev.events = (pause_read ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void AsyncServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  if (conn.reset_on_close) {
    linger lg{1, 0};
    ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  }
  ::close(conn.fd);
  conns_.erase(it);
  conn_gate_.Release();
  if (metrics_) {
    metrics_->conns_active.Set(static_cast<double>(conns_.size()));
  }
}

}  // namespace rtgcn::serve
