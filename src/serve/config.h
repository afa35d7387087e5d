// One configuration surface for the whole serving stack (DESIGN.md §15).
//
// Each layer keeps its own Options struct (InferenceServer, AsyncServer,
// AdmissionController, Client), and ServerConfig is the single source of
// truth for all of them: one struct, one RegisterFlags() that binds every
// knob to a FlagSet, and projection methods that derive each layer's
// Options from it. A binary (serve_server, bench_serve, the chaos
// harnesses) registers once, parses once, and wires the stack with
// `config.server_options()`, `config.async_options()`, ... — defaults
// and flag names cannot drift between binaries. The backend has no batch
// window to tune: requests run on the caller's thread and same-day
// requests share one forward (serve/server.h).
#ifndef RTGCN_SERVE_CONFIG_H_
#define RTGCN_SERVE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "serve/async_server.h"
#include "serve/client.h"
#include "serve/server.h"

namespace rtgcn::serve {

/// \brief Every serving knob in one place. Field defaults are the
/// production defaults; RegisterFlags() exposes each as --<name>.
struct ServerConfig {
  // Front end (AsyncServer).
  int port = 0;                 ///< 0 picks an ephemeral port
  int backlog = 256;
  int64_t max_connections = 10000;
  int64_t max_line_bytes = 65536;
  int64_t executor_threads = 16;       ///< blocking-path workers
  int64_t max_outbox_bytes = 1 << 20;  ///< per-conn reply buffer cap
  int64_t max_pending_lines = 128;     ///< per-conn line backlog cap

  // Score cache (InferenceServer).
  bool enable_cache = true;
  int64_t cache_capacity = 256;

  // Overload safety.
  int64_t max_queue = 1024;
  int64_t degraded_failure_threshold = 3;

  // Client (loopback tools, benches, chaos harnesses).
  int64_t connect_timeout_ms = 1000;
  int64_t recv_timeout_ms = 5000;
  int64_t send_client_timeout_ms = 5000;
  int max_attempts = 4;
  bool retry_busy = true;

  /// Binds every field to `fs` as --<field name>. `prefix` namespaces the
  /// flags (e.g. "serve_") for binaries that also register other groups.
  void RegisterFlags(FlagSet* fs, const std::string& prefix = "");

  /// Bounds validation (positive caps and thread counts) for configs
  /// parsed from flags or built in code.
  Status Validate() const;

  // Projections: each layer's Options derived from the shared fields.
  InferenceServer::Options server_options() const;
  AsyncServer::Options async_options() const;
  Client::Options client_options() const;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_CONFIG_H_
