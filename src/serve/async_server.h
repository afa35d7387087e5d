// Epoll event-loop front end over the InferenceServer (DESIGN.md §15): the
// one socket front end of the serving stack. Every wire line is a framed
// "2 <id> <VERB> ..." request; an unframed line is answered
// "2 0 ERR <usage>" and the connection stays open.
//
// One IO thread multiplexes every connection through a level-triggered
// epoll set — non-blocking accept/read/write with a per-connection state
// machine.
//
// Request flow per connection, strictly in arrival order. Each line is
// parsed and stamped with its arrival once, when it is framed, and runs
// the one dispatch, ExecuteRequest: first on the IO thread with may_wait
// false, which answers PING/HEALTH/STATS, malformed lines and SERVING
// cache hits inline; a line that declines there goes unchanged to a small
// executor pool, which runs it with may_wait true. A connection has at
// most one line out at the executors, so replies come back in order.
//
// A DEADLINE runs from the arrival stamp: a line that waited behind its
// connection's earlier lines or in the executor queue past its deadline
// is shed when it is answered. The executor queue holds at most one line
// per connection, so max_connections bounds it.
//
// Overload safety: a connection cap (excess accepts answer BUSY and
// close), a request-line byte cap (a line longer than max_line_bytes,
// terminated or not, gets "ERR line too long" and the connection is
// dropped; these two notices answer no request, so they carry no
// frame), bounded per-connection input and output buffers — a connection
// pushing lines faster than the server drains them, or not reading its
// replies, loses EPOLLIN until it drains (TCP backpressure does the
// rest) — and MSG_NOSIGNAL everywhere.
//
// Threading: epoll_ctl, reads, writes and connection teardown happen only
// on the IO thread. Executors touch a completion queue (mutex) and an
// eventfd, never a socket. Chaos faults are applied on the IO thread when
// a reply is appended; a kDelay fault stalls the whole loop for its
// duration — acceptable for the test-only injector, never enabled in
// production paths.
#ifndef RTGCN_SERVE_ASYNC_SERVER_H_
#define RTGCN_SERVE_ASYNC_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/admission.h"
#include "serve/chaos.h"
#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace rtgcn::serve {

/// \brief Single-threaded epoll front end over an InferenceServer.
/// `server` (and `metrics`, which may be null) must outlive it.
class AsyncServer {
 public:
  struct Options {
    int port = 0;      ///< 0 picks an ephemeral port (see port())
    int backlog = 256;
    int64_t max_connections = 10000;  ///< excess accepts get BUSY + close
    int64_t max_line_bytes = 65536;   ///< request-line cap
    /// Blocking-path worker threads (each carries one in-flight blocking
    /// line and runs the server's request path for it).
    int64_t executor_threads = 16;
    /// Per-connection buffered-reply cap: beyond it the connection stops
    /// being read until the client drains its replies.
    int64_t max_outbox_bytes = 1 << 20;
    /// Per-connection parsed-but-undispatched line cap (same backpressure).
    int64_t max_pending_lines = 128;
  };

  AsyncServer(InferenceServer* server, Metrics* metrics, Options options);
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Binds, listens, and starts the IO thread and executor pool.
  Status Start();

  /// Closes the listener and every connection, then joins all threads.
  void Stop();

  /// Port actually bound (resolves an ephemeral request after Start).
  int port() const { return port_; }

  /// Number of currently open protocol connections.
  int64_t active_connections() const { return conn_gate_.in_use(); }

  /// Blocking lines waiting for an executor; never more than
  /// active_connections().
  int64_t queued_lines();

  /// Installs a fault injector consulted on every reply. Call before
  /// Start(); pass nullptr to disable. Test/bench hook only.
  void SetChaos(ChaosInjector* chaos) { chaos_ = chaos; }

 private:
  struct Conn {
    int fd = -1;
    std::string inbuf;    ///< bytes read, not yet split into lines
    std::string outbuf;   ///< reply bytes not yet written to the socket
    std::deque<ParsedLine> lines;  ///< framed lines awaiting dispatch
    bool executing = false;  ///< a blocking line is out at the executors
    bool closing = false;    ///< flush outbuf, then close (QUIT/abuse)
    bool reset_on_close = false;  ///< chaos kReset: RST instead of FIN
    bool want_write = false;      ///< EPOLLOUT currently armed
    bool paused_read = false;     ///< EPOLLIN dropped for backpressure
  };

  struct Work {
    uint64_t conn_id = 0;
    ParsedLine line;
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::string reply;
  };

  void Loop();
  void ExecutorLoop();
  void HandleAccept();
  void HandleReadable(uint64_t id);
  void HandleWritable(uint64_t id);
  /// Splits inbuf into parsed lines, enforces the line cap on every line
  /// (terminated or not), advances the state machine.
  void IngestInput(uint64_t id);
  /// Answers queued lines until one must wait (it goes to an executor).
  void PumpConn(uint64_t id);
  /// Appends one reply (chaos applied), arming EPOLLOUT as needed.
  void QueueReply(uint64_t id, const std::string& reply);
  void FlushConn(uint64_t id);
  void CloseConn(uint64_t id);
  void UpdateEvents(uint64_t id);
  void DrainCompletions();
  void Wake();

  InferenceServer* server_;
  Metrics* metrics_;
  Options options_;
  ChaosInjector* chaos_ = nullptr;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: executors → IO thread
  int port_ = 0;
  bool started_ = false;

  std::thread io_thread_;
  std::vector<std::thread> executors_;

  AdmissionController conn_gate_;

  // IO-thread state (no lock: only the IO thread touches it).
  std::unordered_map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 1;

  // Executor handoff.
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<Work> work_;        ///< <= 1 line per connection
  bool stopping_ = false;        ///< guarded by work_mu_

  std::mutex done_mu_;
  std::deque<Completion> done_;  ///< conn_id + finished reply
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_ASYNC_SERVER_H_
