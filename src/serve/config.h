// One configuration surface for the whole serving stack (DESIGN.md §15).
//
// Each layer declares its own knobs and their defaults once, in its own
// Options struct (InferenceServer::Options, AsyncServer::Options).
// ServerConfig holds those structs and RegisterFlags() binds their fields
// to a FlagSet, so a binary (serve_server, bench_serve, the chaos
// harnesses) registers once, parses once, and wires the stack with
// `config.server` and `config.front`: defaults and flag names cannot
// drift between binaries or between a flag and its layer. Client knobs
// are not here: serve_client and bench_serve build their own
// Client::Options. The backend has no batch window to tune: requests run
// on the caller's thread and same-day requests share one forward
// (serve/server.h).
#ifndef RTGCN_SERVE_CONFIG_H_
#define RTGCN_SERVE_CONFIG_H_

#include "common/flags.h"
#include "common/status.h"
#include "serve/async_server.h"
#include "serve/server.h"

namespace rtgcn::serve {

/// \brief Every server-side serving knob, held in the layers' own Options.
struct ServerConfig {
  InferenceServer::Options server;  ///< cache and overload safety
  AsyncServer::Options front;       ///< epoll front end

  /// Binds every field of `server` and `front` to `fs` as a --<name>
  /// flag; the fields' current values are the flags' defaults.
  void RegisterFlags(FlagSet* fs);

  /// Bounds validation (positive caps and thread counts) for configs
  /// parsed from flags or built in code.
  Status Validate() const;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_CONFIG_H_
