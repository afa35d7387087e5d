// Event model of the streaming market subsystem (DESIGN.md §14).
//
// Everything upstream of the rolling pipeline is expressed as one
// `DayUpdate` per trading day, produced by stream::TickSource:
//
//   * universe events  — IPO / delist; applied at the open, they bump the
//     universe version. Slots are fixed for the life of a stream (the
//     simulator always prices every slot so replays stay draw-for-draw
//     deterministic); churn only toggles which slots are *active*.
//   * relation events  — edges appear and decay (per-type half-lives);
//     applied at the open to stream::RollingPipeline's relation tensor.
//   * the official close — prices for every slot, which is the panel row
//     batch training sees, so streaming and batch datasets agree
//     bit-for-bit.
#ifndef RTGCN_STREAM_EVENTS_H_
#define RTGCN_STREAM_EVENTS_H_

#include <cstdint>
#include <vector>

#include "market/simulator.h"

namespace rtgcn::stream {

/// Edge (i, j, type) appearing (`add`) or decaying away (`!add`).
struct RelationEvent {
  int64_t i = 0;
  int64_t j = 0;
  int32_t type = 0;
  bool add = true;
};

/// Slot activation (IPO) or deactivation (delist) at the day's open.
struct UniverseEvent {
  int64_t slot = 0;
  bool listed = true;
};

/// \brief Everything that happens on one trading day, in order: universe
/// events, relation events, then the close.
struct DayUpdate {
  int64_t day = 0;
  market::Regime regime = market::Regime::kBull;

  std::vector<UniverseEvent> universe_events;
  std::vector<RelationEvent> relation_events;
  /// Official close for every slot, [num_slots] — authoritative panel row.
  std::vector<float> close;
};

}  // namespace rtgcn::stream

#endif  // RTGCN_STREAM_EVENTS_H_
