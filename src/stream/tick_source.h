// TickSource: turns the stateful MarketSimulator into a daily event
// stream (DESIGN.md §14).
//
// One NextDay() call advances the simulator one trading day and expands it
// into a DayUpdate: universe churn (IPO / delist) and relation events
// (edge appear / per-type half-life decay) at the open, then the official
// close. A flash-crash window (MarketSimulator::ForceRegime — regime
// forcing never desynchronizes the other simulator streams) covers the
// stress case the rolling pipeline must survive.
//
// Determinism: all stream-layer draws (churn, edge dynamics) come from Rng
// streams forked from `StreamConfig::seed`, independent of the simulator's
// own streams — two TickSources with equal configs emit identical event
// sequences.
#ifndef RTGCN_STREAM_TICK_SOURCE_H_
#define RTGCN_STREAM_TICK_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "market/relation_generator.h"
#include "market/simulator.h"
#include "market/universe.h"
#include "stream/events.h"

namespace rtgcn::stream {

/// \brief Stream-layer configuration (the simulator config rides inside).
struct StreamConfig {
  market::SimulatorConfig sim;  ///< daily dynamics (seeded separately)

  // Stress scenario.
  int64_t flash_crash_day = -1;  ///< ForceRegime(kCrash) at this day (-1 off)
  int64_t flash_crash_duration = 3;

  // Universe churn. Slots beyond `initial_active` start dormant (pre-IPO).
  int64_t initial_active = 0;  ///< 0 = every slot active from day 0
  double ipo_probability = 0.0;     ///< per-day P(one dormant slot lists)
  double delist_probability = 0.0;  ///< per-day P(one active slot delists)
  int64_t min_active = 4;           ///< delisting never goes below this
  int64_t churn_start_day = 0;      ///< no churn before this day

  // Relation dynamics.
  double edge_appear_per_day = 0.0;  ///< expected new wiki-type edges / day
  /// Half-life in days for edges of each relation type (indexed by type);
  /// <= 0 or missing = the type never decays. Typically only wiki types
  /// decay — industry membership is structural.
  std::vector<double> type_half_life;

  uint64_t seed = 17;  ///< stream-layer seed (independent of sim.seed)
};

/// \brief Seeded daily event stream over a simulated market.
///
/// `universe` and `relations` must outlive the source. `relations` is the
/// day-0 relation state; relation events are emitted as deltas against it
/// (TickSource tracks the evolving edge set internally for decay draws).
class TickSource {
 public:
  TickSource(const market::StockUniverse& universe,
             const market::RelationData& relations, StreamConfig config);

  /// Produces the next trading day. The first call yields day 1 (day 0 is
  /// the simulator's initial state: closes available via `day0_close()`).
  DayUpdate NextDay();

  int64_t day() const { return sim_.day(); }
  int64_t num_slots() const { return num_slots_; }
  /// Closing prices of simulator day 0 (the stream's seed row).
  const std::vector<float>& day0_close() const { return day0_close_; }

  const std::vector<bool>& active() const { return active_; }
  int64_t num_active() const { return num_active_; }
  /// Bumped once per day that carries at least one universe event.
  int64_t universe_version() const { return universe_version_; }

  const StreamConfig& config() const { return config_; }
  const market::MarketSimulator& simulator() const { return sim_; }

 private:
  void EmitChurn(DayUpdate* update);
  void EmitRelationDynamics(DayUpdate* update);

  const market::StockUniverse* universe_;
  StreamConfig config_;
  market::MarketSimulator sim_;

  int64_t num_slots_ = 0;
  std::vector<float> day0_close_;

  std::vector<bool> active_;
  int64_t num_active_ = 0;
  int64_t universe_version_ = 0;

  /// Evolving edge set for decay draws: every live (i, j, type) fact whose
  /// type has a finite half-life.
  struct DynEdge {
    int64_t i, j;
    int32_t type;
  };
  std::vector<DynEdge> decayable_;

  Rng scenario_rng_, relation_rng_;
};

}  // namespace rtgcn::stream

#endif  // RTGCN_STREAM_TICK_SOURCE_H_
