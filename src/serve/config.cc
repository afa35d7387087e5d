#include "serve/config.h"

namespace rtgcn::serve {

void ServerConfig::RegisterFlags(FlagSet* fs) {
  fs->Register("port", &front.port, "listen port (0 = ephemeral)");
  fs->Register("backlog", &front.backlog, "listen(2) backlog");
  fs->Register("max_connections", &front.max_connections,
               "concurrent connection cap (excess get BUSY)");
  fs->Register("max_line_bytes", &front.max_line_bytes,
               "request-line byte cap");
  fs->Register("executor_threads", &front.executor_threads,
               "blocking-path worker threads");
  fs->Register("max_outbox_bytes", &front.max_outbox_bytes,
               "per-connection reply buffer cap");
  fs->Register("max_pending_lines", &front.max_pending_lines,
               "per-connection undispatched line cap");
  fs->Register("cache", &server.enable_cache,
               "enable the (version, day) score cache");
  fs->Register("cache_capacity", &server.cache_capacity,
               "cached (version, day) entries (FIFO)");
  fs->Register("max_queue", &server.max_queue,
               "in-flight request bound (excess get BUSY)");
  fs->Register("degraded_failure_threshold",
               &server.degraded_failure_threshold,
               "consecutive reload failures before DEGRADED (<=0 off)");
}

Status ServerConfig::Validate() const {
  if (server.max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1, got ",
                                   server.max_queue);
  }
  if (front.max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1, got ",
                                   front.max_connections);
  }
  if (front.executor_threads < 1) {
    return Status::InvalidArgument("executor_threads must be >= 1, got ",
                                   front.executor_threads);
  }
  return Status::OK();
}

}  // namespace rtgcn::serve
