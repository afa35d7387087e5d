#include "stream/tick_source.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace rtgcn::stream {

namespace {

double HalfLifeFor(const StreamConfig& config, int32_t type) {
  if (static_cast<size_t>(type) >= config.type_half_life.size()) return 0;
  return config.type_half_life[static_cast<size_t>(type)];
}

}  // namespace

TickSource::TickSource(const market::StockUniverse& universe,
                       const market::RelationData& relations,
                       StreamConfig config)
    : universe_(&universe),
      config_(std::move(config)),
      sim_(universe, relations, config_.sim),
      num_slots_(universe.size()) {
  day0_close_ = sim_.prices();

  Rng root(config_.seed);
  // Discarded, so the two forks below draw the same streams as before.
  root.Fork();
  scenario_rng_ = root.Fork();
  relation_rng_ = root.Fork();

  const int64_t initial =
      config_.initial_active > 0
          ? std::min(config_.initial_active, num_slots_)
          : num_slots_;
  active_.assign(static_cast<size_t>(num_slots_), false);
  for (int64_t i = 0; i < initial; ++i) active_[static_cast<size_t>(i)] = true;
  num_active_ = initial;

  // Seed the decayable-edge set with every live fact of a decaying type.
  for (const auto& e : relations.relations.EdgeList()) {
    for (int32_t t : e.types) {
      if (HalfLifeFor(config_, t) > 0) decayable_.push_back({e.i, e.j, t});
    }
  }
}

void TickSource::EmitChurn(DayUpdate* update) {
  if (sim_.day() < config_.churn_start_day) return;

  if (config_.ipo_probability > 0 &&
      scenario_rng_.Bernoulli(config_.ipo_probability) &&
      num_active_ < num_slots_) {
    // List the dormant slot chosen by a seeded draw.
    std::vector<int64_t> dormant;
    for (int64_t i = 0; i < num_slots_; ++i) {
      if (!active_[static_cast<size_t>(i)]) dormant.push_back(i);
    }
    const int64_t slot =
        dormant[scenario_rng_.UniformInt(static_cast<uint64_t>(dormant.size()))];
    active_[static_cast<size_t>(slot)] = true;
    ++num_active_;
    update->universe_events.push_back({slot, /*listed=*/true});
  }

  if (config_.delist_probability > 0 &&
      scenario_rng_.Bernoulli(config_.delist_probability) &&
      num_active_ > config_.min_active) {
    std::vector<int64_t> listed;
    for (int64_t i = 0; i < num_slots_; ++i) {
      if (active_[static_cast<size_t>(i)]) listed.push_back(i);
    }
    const int64_t slot =
        listed[scenario_rng_.UniformInt(static_cast<uint64_t>(listed.size()))];
    active_[static_cast<size_t>(slot)] = false;
    --num_active_;
    update->universe_events.push_back({slot, /*listed=*/false});
    // A delisted company's relations dissolve with it.
    for (const auto& e : decayable_) {
      if (e.i == slot || e.j == slot) {
        update->relation_events.push_back({e.i, e.j, e.type, /*add=*/false});
      }
    }
  }

  if (!update->universe_events.empty()) ++universe_version_;
}

void TickSource::EmitRelationDynamics(DayUpdate* update) {
  // Decay: each live decayable fact survives a day with probability
  // 2^(-1/half_life).
  for (const auto& e : decayable_) {
    const double half_life = HalfLifeFor(config_, e.type);
    const double p_drop = 1.0 - std::exp2(-1.0 / half_life);
    if (relation_rng_.Bernoulli(p_drop)) {
      update->relation_events.push_back({e.i, e.j, e.type, /*add=*/false});
    }
  }

  // Appearance: Poisson-ish via per-expected-edge Bernoulli draws, between
  // active stocks, over the decaying types only (industry structure does
  // not churn).
  if (config_.edge_appear_per_day > 0 && num_active_ >= 2) {
    std::vector<int32_t> dyn_types;
    for (size_t t = 0; t < config_.type_half_life.size(); ++t) {
      if (config_.type_half_life[t] > 0) {
        dyn_types.push_back(static_cast<int32_t>(t));
      }
    }
    if (!dyn_types.empty()) {
      const int64_t draws =
          static_cast<int64_t>(std::ceil(config_.edge_appear_per_day));
      const double p = config_.edge_appear_per_day / static_cast<double>(draws);
      std::vector<int64_t> listed;
      for (int64_t i = 0; i < num_slots_; ++i) {
        if (active_[static_cast<size_t>(i)]) listed.push_back(i);
      }
      for (int64_t d = 0; d < draws; ++d) {
        if (!relation_rng_.Bernoulli(p)) continue;
        const int64_t a = listed[relation_rng_.UniformInt(
            static_cast<uint64_t>(listed.size()))];
        int64_t b = listed[relation_rng_.UniformInt(
            static_cast<uint64_t>(listed.size()))];
        if (a == b) continue;  // self pair: drop the draw
        const int32_t type = dyn_types[relation_rng_.UniformInt(
            static_cast<uint64_t>(dyn_types.size()))];
        update->relation_events.push_back({a, b, type, /*add=*/true});
      }
    }
  }

  // Fold the emitted deltas back into the decayable set (removals first
  // would also work — events carry full facts, order within a day is the
  // emission order above).
  for (const auto& ev : update->relation_events) {
    if (ev.add) {
      const int64_t i = std::min(ev.i, ev.j), j = std::max(ev.i, ev.j);
      bool known = false;
      for (const auto& e : decayable_) {
        if (e.i == i && e.j == j && e.type == ev.type) {
          known = true;
          break;
        }
      }
      if (!known && HalfLifeFor(config_, ev.type) > 0) {
        decayable_.push_back({i, j, ev.type});
      }
    } else {
      const int64_t i = std::min(ev.i, ev.j), j = std::max(ev.i, ev.j);
      decayable_.erase(
          std::remove_if(decayable_.begin(), decayable_.end(),
                         [&](const DynEdge& e) {
                           return e.i == i && e.j == j && e.type == ev.type;
                         }),
          decayable_.end());
    }
  }
}

DayUpdate TickSource::NextDay() {
  obs::Span span("stream.NextDay", "stream");

  // Arm the flash-crash window so it covers the configured day.
  if (config_.flash_crash_day >= 0 &&
      sim_.day() + 1 == config_.flash_crash_day) {
    sim_.ForceRegime(market::Regime::kCrash, config_.flash_crash_duration);
  }
  sim_.StepDay();

  DayUpdate update;
  update.day = sim_.day();
  update.regime = sim_.regime();
  update.close = sim_.prices();

  EmitChurn(&update);
  EmitRelationDynamics(&update);
  return update;
}

}  // namespace rtgcn::stream
