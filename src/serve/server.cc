#include "serve/server.h"

#include <algorithm>
#include <future>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "obs/clock.h"
#include "obs/trace.h"

namespace rtgcn::serve {

namespace {

// (version, day) cache key. Checkpoint epochs are capped at 2^40 by the
// checkpoint name parser and a valid day index is bounded by the price
// panel (decades of trading days << 2^20), so the packing is collision-free
// for every Cacheable day.
constexpr int kDayBits = 20;
uint64_t CacheKey(int64_t version, int64_t day) {
  return (static_cast<uint64_t>(version) << kDayBits) |
         static_cast<uint64_t>(day);
}

// A day outside [0, 2^20) would alias another version's key: it bypasses
// the cache and the ScoreFn rejects it.
bool Cacheable(int64_t day) {
  return day >= 0 && day < (int64_t{1} << kDayBits);
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

}  // namespace

InferenceServer::ScoreFn InferenceServer::DatasetScoreFn(
    const market::WindowDataset* data) {
  RTGCN_CHECK(data != nullptr);
  return [data](const ModelSnapshot& snapshot,
                int64_t day) -> Result<std::vector<float>> {
    if (day < data->first_day() || day > data->last_day()) {
      return Status::InvalidArgument("day ", day,
                                     " outside the valid range [",
                                     data->first_day(), ", ",
                                     data->last_day(), "]");
    }
    obs::Span span("serve.forward", "serve");
    const Tensor scores = snapshot.Score(data->Features(day));
    return std::vector<float>(scores.data(), scores.data() + scores.numel());
  };
}

InferenceServer::InferenceServer(ScoreFn score_fn, int64_t num_stocks,
                                 ModelRegistry* registry, Options options,
                                 Metrics* metrics)
    : score_fn_(std::move(score_fn)),
      num_stocks_(num_stocks),
      registry_(registry),
      options_(options),
      metrics_(metrics),
      admission_({options.max_queue, "requests"}) {
  RTGCN_CHECK(score_fn_ != nullptr);
  RTGCN_CHECK(registry_ != nullptr);
  options_.cache_capacity = std::max<int64_t>(options_.cache_capacity, 1);
  options_.max_queue = std::max<int64_t>(options_.max_queue, 1);
  // Closed until Start(): a request before then is answered "draining".
  admission_.CloseForDrain();
}

InferenceServer::InferenceServer(const market::WindowDataset* data,
                                 ModelRegistry* registry, Options options,
                                 Metrics* metrics)
    : InferenceServer(DatasetScoreFn(data), data->num_stocks(), registry,
                      options, metrics) {}

InferenceServer::~InferenceServer() { Stop(); }

Status InferenceServer::Start() {
  admission_.Reopen();
  return Status::OK();
}

void InferenceServer::Stop() {
  // Later arrivals fail with "draining"; a drain completes admitted work
  // instead of orphaning it.
  admission_.CloseForDrain();
  admission_.WaitIdle();
}

std::optional<Result<InferenceServer::Scored>> InferenceServer::Execute(
    int64_t day, const RequestOptions& request, bool may_wait) {
  // One pinned snapshot: the reply maps to exactly this version.
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
  const HealthState health = Health();
  std::shared_ptr<const DayScores> cached =
      snapshot ? Cached(snapshot->version(), day) : nullptr;
  // Only a SERVING server's cache hit answers without waiting: a miss
  // runs or joins a forward, and degraded fallbacks and DRAINING replies
  // go through admission.
  if (!may_wait && (!cached || health != HealthState::kServing)) {
    return std::nullopt;
  }
  if (metrics_) metrics_->requests.Increment();
  // The latency clock starts at arrival: the time since then, moved once
  // onto the obs::NowMicros timeline (a request from the future waited 0).
  const auto now = std::chrono::steady_clock::now();
  const auto waited_us = std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(
             now - request.arrival)
             .count());
  const uint64_t now_us = obs::NowMicros();
  const uint64_t start_us =
      now_us - std::min(now_us, static_cast<uint64_t>(waited_us));
  // Admission first: a full server answers at once instead of queueing
  // without limit. A hit answered without waiting takes no slot.
  if (may_wait) {
    const Status admitted = admission_.Admit();
    if (!admitted.ok()) {
      if (metrics_) metrics_->shed.Increment();
      return Result<Scored>(admitted);
    }
  }
  Result<Scored> result = [&]() -> Result<Scored> {
    if (now >= request.deadline) {
      // Outlived its deadline before it was answered (e.g. queued behind
      // its connection's earlier lines or other work at the front end).
      return Status::DeadlineExceeded("deadline passed before day ", day,
                                      " started executing");
    }
    if (!snapshot) {
      // Graceful degradation: with no published model, fall back to the
      // last scores ever computed for this day (flagged stale) instead of
      // erroring; only a day never scored before fails.
      Scored stale = LastScoresFor(day);
      if (stale.day) return stale;
      return Status::NotFound("no model version published yet");
    }
    const bool degraded = health == HealthState::kDegraded;
    if (cached) {
      if (metrics_) metrics_->cache_hits.Increment();
      return Scored{snapshot->version(), std::move(cached), degraded};
    }
    auto scores = ScoresFor(*snapshot, day, request.deadline);
    if (!scores.ok()) return scores.status();
    return Scored{snapshot->version(), scores.MoveValueOrDie(), degraded};
  }();
  // Every counted request ends in exactly one terminal counter before its
  // slot is returned, so the accounting invariant holds after Stop().
  if (metrics_) {
    if (!result.ok() &&
        result.status().code() == StatusCode::kDeadlineExceeded) {
      metrics_->expired.Increment();
    } else {
      // Clamped single-clock-source elapsed time: can never go negative
      // or wrap, even if the clock is skewed (obs/clock.h).
      metrics_->latency.Record(obs::ElapsedMicrosSince(start_us));
      (result.ok() ? metrics_->responses_ok : metrics_->responses_error)
          .Increment();
      if (result.ok() && result.ValueOrDie().stale) {
        metrics_->stale_served.Increment();
      }
    }
  }
  if (may_wait) admission_.Release();
  return result;
}

std::optional<Result<InferenceServer::RankReply>> InferenceServer::Rank(
    int64_t day, const RequestOptions& request, bool may_wait) {
  obs::Span span("serve.rank", "serve");
  std::optional<Result<Scored>> scored = Execute(day, request, may_wait);
  if (!scored) return std::nullopt;
  if (!scored->ok()) return Result<RankReply>(scored->status());
  const Scored& s = scored->ValueOrDie();
  return Result<RankReply>(RankReply{.model_version = s.version,
                                     .day = day,
                                     .scores = s.day->scores,
                                     .stale = s.stale});
}

Result<InferenceServer::ScoreReply> InferenceServer::Score(
    int64_t day, int64_t stock, RequestOptions request) {
  auto replies = *ScoreBatch(day, {&stock, 1}, request, /*may_wait=*/true);
  if (!replies.ok()) return replies.status();
  return replies.ValueOrDie().front();
}

std::optional<Result<std::vector<InferenceServer::ScoreReply>>>
InferenceServer::ScoreBatch(int64_t day, std::span<const int64_t> stocks,
                            const RequestOptions& request, bool may_wait) {
  obs::Span span("serve.score", "serve");
  for (const int64_t stock : stocks) {
    if (stock < 0 || stock >= num_stocks_) {
      if (metrics_) {
        metrics_->requests.Increment();
        metrics_->responses_error.Increment();
      }
      return Result<std::vector<ScoreReply>>(Status::InvalidArgument(
          "stock ", stock, " out of range [0, ", num_stocks_, ")"));
    }
  }
  std::optional<Result<Scored>> scored = Execute(day, request, may_wait);
  if (!scored) return std::nullopt;
  if (!scored->ok()) {
    return Result<std::vector<ScoreReply>>(scored->status());
  }
  const Scored& s = scored->ValueOrDie();
  std::vector<ScoreReply> replies;
  replies.reserve(stocks.size());
  for (const int64_t stock : stocks) {
    replies.push_back({.model_version = s.version,
                       .score = s.day->scores[static_cast<size_t>(stock)],
                       .rank = s.day->ranks[static_cast<size_t>(stock)],
                       .num_stocks = num_stocks_,
                       .stale = s.stale});
  }
  return replies;
}

bool InferenceServer::TryRankCached(int64_t day, RankReply* out) {
  auto reply = Rank(day, RequestOptions(), /*may_wait=*/false);
  if (!reply || !reply->ok()) return false;
  *out = reply->MoveValueOrDie();
  return true;
}

bool InferenceServer::TryScoreCached(int64_t day, int64_t stock,
                                     ScoreReply* out) {
  auto replies =
      ScoreBatch(day, {&stock, 1}, RequestOptions(), /*may_wait=*/false);
  if (!replies || !replies->ok()) return false;
  *out = replies->ValueOrDie().front();
  return true;
}

std::shared_ptr<const InferenceServer::DayScores> InferenceServer::Cached(
    int64_t version, int64_t day) {
  if (!options_.enable_cache || !Cacheable(day)) return nullptr;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(CacheKey(version, day));
  return it == cache_.end() ? nullptr : it->second;
}

HealthState InferenceServer::HealthLocked(bool draining) {
  const HealthState state =
      draining ? HealthState::kDraining
               : registry_->Health(options_.degraded_failure_threshold);
  // Degraded-seconds accounting: attribute the time since the previous
  // evaluation to the state it was spent in.
  std::lock_guard<std::mutex> lock(health_mu_);
  const uint64_t now_us = obs::NowMicros();
  if (last_health_us_ != 0 && was_degraded_) {
    degraded_secs_ +=
        static_cast<double>(obs::ElapsedMicrosSince(last_health_us_)) * 1e-6;
  }
  last_health_us_ = now_us;
  was_degraded_ = (state == HealthState::kDegraded);
  if (metrics_) metrics_->degraded_seconds.Set(degraded_secs_);
  return state;
}

HealthState InferenceServer::Health() {
  return HealthLocked(admission_.draining());
}

std::string InferenceServer::HealthLine() {
  const int64_t in_flight = admission_.in_use();
  const HealthState state = HealthLocked(admission_.draining());
  std::ostringstream out;
  out << HealthStateName(state) << " version=" << registry_->CurrentVersion()
      << " reload_failures=" << registry_->consecutive_reload_failures()
      << " queue=" << in_flight;
  return out.str();
}

Result<std::shared_ptr<const InferenceServer::DayScores>>
InferenceServer::ScoresFor(const ModelSnapshot& snapshot, int64_t day,
                           std::chrono::steady_clock::time_point deadline) {
  // A day outside the key range cannot share a key; the ScoreFn rejects
  // it on its own forward.
  if (!Cacheable(day)) return Forward(snapshot, day);
  const uint64_t key = CacheKey(snapshot.version(), day);
  std::optional<std::promise<Result<std::shared_ptr<const DayScores>>>> lead;
  Flight flight;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (options_.enable_cache) {
      auto it = cache_.find(key);
      if (it != cache_.end()) {
        if (metrics_) metrics_->cache_hits.Increment();
        return it->second;
      }
    }
    auto [it, inserted] = inflight_.try_emplace(key);
    if (inserted) it->second = lead.emplace().get_future().share();
    flight = it->second;
  }
  if (!lead) {
    // Joining counts neither a cache hit nor a miss: the leader's forward
    // is this request's forward.
    if (deadline != kNoDeadline &&
        flight.wait_until(deadline) == std::future_status::timeout) {
      return Status::DeadlineExceeded(
          "deadline passed waiting for the forward of day ", day);
    }
    return flight.get();
  }
  Result<std::shared_ptr<const DayScores>> result = Forward(snapshot, day);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    inflight_.erase(key);
    if (result.ok() && options_.enable_cache &&
        cache_.emplace(key, result.ValueOrDie()).second) {
      cache_fifo_.push_back(key);
      while (static_cast<int64_t>(cache_fifo_.size()) >
             options_.cache_capacity) {
        cache_.erase(cache_fifo_.front());
        cache_fifo_.pop_front();
      }
    }
  }
  lead->set_value(result);
  return result;
}

Result<std::shared_ptr<const InferenceServer::DayScores>>
InferenceServer::Forward(const ModelSnapshot& snapshot, int64_t day) {
  Result<std::vector<float>> scores = score_fn_(snapshot, day);
  // A failed ScoreFn (e.g. a day outside the data) ran no forward, so only
  // a successful one counts as a cache miss.
  if (!scores.ok()) return scores.status();
  if (metrics_) {
    metrics_->cache_misses.Increment();
    metrics_->forwards.Increment();
  }
  auto entry = std::make_shared<DayScores>();
  entry->scores = scores.MoveValueOrDie();
  RTGCN_CHECK_EQ(static_cast<int64_t>(entry->scores.size()), num_stocks_);
  const int64_t n = num_stocks_;
  // Dense ranks, best score first; ties broken by stock id so the ranking
  // is deterministic.
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return entry->scores[static_cast<size_t>(a)] >
           entry->scores[static_cast<size_t>(b)];
  });
  entry->ranks.assign(static_cast<size_t>(n), 0);
  for (int64_t r = 0; r < n; ++r) {
    entry->ranks[static_cast<size_t>(order[static_cast<size_t>(r)])] = r;
  }
  std::shared_ptr<const DayScores> scored = std::move(entry);
  RememberScores(day, snapshot.version(), scored);
  return scored;
}

InferenceServer::Scored InferenceServer::LastScoresFor(int64_t day) {
  std::lock_guard<std::mutex> lock(stale_mu_);
  auto it = last_by_day_.find(day);
  if (it == last_by_day_.end()) return Scored{};
  Scored stale = it->second;
  stale.stale = true;
  return stale;
}

void InferenceServer::RememberScores(
    int64_t day, int64_t version, std::shared_ptr<const DayScores> entry) {
  std::lock_guard<std::mutex> lock(stale_mu_);
  auto [it, inserted] = last_by_day_.try_emplace(day);
  // A forward pinned to an older version can finish after a newer one:
  // keep the newest. An equal version (every cache hit) leaves it as is.
  if (!inserted && version <= it->second.version) return;
  it->second = Scored{version, std::move(entry), false};
  if (inserted) {
    stale_fifo_.push_back(day);
    while (static_cast<int64_t>(stale_fifo_.size()) >
           options_.cache_capacity) {
      last_by_day_.erase(stale_fifo_.front());
      stale_fifo_.pop_front();
    }
  }
}

}  // namespace rtgcn::serve
