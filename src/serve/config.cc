#include "serve/config.h"

namespace rtgcn::serve {

void ServerConfig::RegisterFlags(FlagSet* fs, const std::string& prefix) {
  auto name = [&prefix](const char* n) { return prefix + n; };
  fs->Register(name("port"), &port, "listen port (0 = ephemeral)");
  fs->Register(name("backlog"), &backlog, "listen(2) backlog");
  fs->Register(name("max_connections"), &max_connections,
               "concurrent connection cap (excess get BUSY)");
  fs->Register(name("max_line_bytes"), &max_line_bytes,
               "request-line byte cap");
  fs->Register(name("executor_threads"), &executor_threads,
               "blocking-path worker threads");
  fs->Register(name("max_outbox_bytes"), &max_outbox_bytes,
               "per-connection reply buffer cap");
  fs->Register(name("max_pending_lines"), &max_pending_lines,
               "per-connection undispatched line cap");
  fs->Register(name("cache"), &enable_cache,
               "enable the (version, day) score cache");
  fs->Register(name("cache_capacity"), &cache_capacity,
               "cached (version, day) entries (FIFO)");
  fs->Register(name("max_queue"), &max_queue,
               "in-flight request bound (excess get BUSY)");
  fs->Register(name("degraded_failure_threshold"),
               &degraded_failure_threshold,
               "consecutive reload failures before DEGRADED (<=0 off)");
  fs->Register(name("connect_timeout_ms"), &connect_timeout_ms,
               "client: connect bound");
  fs->Register(name("recv_timeout_ms"), &recv_timeout_ms,
               "client: per-read bound");
  fs->Register(name("client_send_timeout_ms"), &send_client_timeout_ms,
               "client: per-send bound");
  fs->Register(name("max_attempts"), &max_attempts,
               "client: total tries per request, first included");
  fs->Register(name("retry_busy"), &retry_busy,
               "client: retry BUSY replies with backoff");
}

Status ServerConfig::Validate() const {
  if (max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1, got ", max_queue);
  }
  if (max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1, got ",
                                   max_connections);
  }
  if (executor_threads < 1) {
    return Status::InvalidArgument("executor_threads must be >= 1, got ",
                                   executor_threads);
  }
  return Status::OK();
}

InferenceServer::Options ServerConfig::server_options() const {
  InferenceServer::Options opts;
  opts.enable_cache = enable_cache;
  opts.cache_capacity = cache_capacity;
  opts.max_queue = max_queue;
  opts.degraded_failure_threshold = degraded_failure_threshold;
  return opts;
}

AsyncServer::Options ServerConfig::async_options() const {
  AsyncServer::Options opts;
  opts.port = port;
  opts.backlog = backlog;
  opts.max_connections = max_connections;
  opts.max_line_bytes = max_line_bytes;
  opts.executor_threads = executor_threads;
  opts.max_outbox_bytes = max_outbox_bytes;
  opts.max_pending_lines = max_pending_lines;
  return opts;
}

Client::Options ServerConfig::client_options() const {
  Client::Options opts;
  opts.port = port;
  opts.connect_timeout_ms = connect_timeout_ms;
  opts.recv_timeout_ms = recv_timeout_ms;
  opts.send_timeout_ms = send_client_timeout_ms;
  opts.max_attempts = max_attempts;
  opts.retry_busy = retry_busy;
  return opts;
}

}  // namespace rtgcn::serve
