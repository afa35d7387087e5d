#include "serve/server.h"

#include <algorithm>
#include <numeric>
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
      admission_({std::max<int64_t>(options.max_queue, 1), options.admission,
                  options.admission_timeout_ms, "requests"}) {
  RTGCN_CHECK(score_fn_ != nullptr);
  RTGCN_CHECK(registry_ != nullptr);
  options_.max_batch = std::max<int64_t>(options_.max_batch, 1);
  options_.batch_timeout_us = std::max<int64_t>(options_.batch_timeout_us, 0);
  options_.cache_capacity = std::max<int64_t>(options_.cache_capacity, 1);
  options_.max_queue = std::max<int64_t>(options_.max_queue, 1);
}

InferenceServer::InferenceServer(const market::WindowDataset* data,
                                 ModelRegistry* registry, Options options,
                                 Metrics* metrics)
    : InferenceServer(DatasetScoreFn(data), data->num_stocks(), registry,
                      options, metrics) {}

InferenceServer::~InferenceServer() { Stop(); }

Status InferenceServer::Start() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (running_) return Status::OK();
  running_ = true;
  draining_ = false;
  admission_.Reopen();
  batcher_ = std::thread([this] { BatchLoop(); });
  return Status::OK();
}

void InferenceServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_) return;
    draining_ = true;
  }
  // Fail waiters at the admission gate (and all later arrivals) with a
  // "draining" status, then let the batcher flush what was already
  // admitted: a drain completes queued work instead of orphaning it.
  admission_.CloseForDrain();
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    running_ = false;
  }
}

Result<InferenceServer::Scored> InferenceServer::Submit(
    int64_t day, const RequestOptions& request) {
  if (metrics_) metrics_->requests.fetch_add(1, std::memory_order_relaxed);
  const auto now = std::chrono::steady_clock::now();
  const auto deadline =
      request.deadline_ms > 0
          ? now + std::chrono::milliseconds(request.deadline_ms)
          : kNoDeadline;
  // Admission first: a full queue answers in bounded time (reject-fast or
  // block-with-timeout) instead of growing without limit.
  const Status admitted = admission_.Admit(deadline);
  if (!admitted.ok()) {
    if (metrics_) {
      (admitted.code() == StatusCode::kDeadlineExceeded ? metrics_->expired
                                                        : metrics_->shed)
          .fetch_add(1, std::memory_order_relaxed);
    }
    return admitted;
  }
  std::future<Result<Scored>> future;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_ || draining_) {
      admission_.Release();
      if (metrics_) metrics_->shed.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable(running_ ? "draining: server is stopping"
                                          : "draining: server is not running");
    }
    Pending pending;
    pending.day = day;
    pending.enqueue = now;
    pending.deadline = deadline;
    pending.enqueue_us = obs::NowMicros();
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  return future.get();
}

Result<InferenceServer::RankReply> InferenceServer::Rank(
    int64_t day, RequestOptions request) {
  obs::Span span("serve.rank", "serve");
  auto scored = Submit(day, request);
  if (!scored.ok()) return scored.status();
  const Scored& s = scored.ValueOrDie();
  RankReply reply;
  reply.model_version = s.version;
  reply.day = day;
  reply.scores = s.day->scores;
  reply.stale = s.stale;
  return reply;
}

Result<InferenceServer::ScoreReply> InferenceServer::Score(
    int64_t day, int64_t stock, RequestOptions request) {
  obs::Span span("serve.score", "serve");
  if (stock < 0 || stock >= num_stocks_) {
    if (metrics_) {
      metrics_->requests.fetch_add(1, std::memory_order_relaxed);
      metrics_->responses_error.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::InvalidArgument("stock ", stock, " out of range [0, ",
                                   num_stocks_, ")");
  }
  auto scored = Submit(day, request);
  if (!scored.ok()) return scored.status();
  const Scored& s = scored.ValueOrDie();
  ScoreReply reply;
  reply.model_version = s.version;
  reply.score = s.day->scores[static_cast<size_t>(stock)];
  reply.rank = s.day->ranks[static_cast<size_t>(stock)];
  reply.num_stocks = num_stocks_;
  reply.stale = s.stale;
  return reply;
}

bool InferenceServer::TryRankCached(int64_t day, RankReply* out) {
  if (!options_.enable_cache || !Cacheable(day)) return false;
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
  if (!snapshot) return false;
  // Only the healthy path may skip the queue: degraded (stale flags,
  // fallbacks) and draining (DRAINING replies) must see the full
  // Submit()-side accounting.
  if (Health() != HealthState::kServing) return false;
  std::shared_ptr<const DayScores> entry;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(CacheKey(snapshot->version(), day));
    if (it == cache_.end()) return false;
    entry = it->second;
  }
  if (metrics_) metrics_->cache_hits.fetch_add(1, std::memory_order_relaxed);
  out->model_version = snapshot->version();
  out->day = day;
  out->scores = entry->scores;
  out->stale = false;
  return true;
}

bool InferenceServer::TryScoreCached(int64_t day, int64_t stock,
                                     ScoreReply* out) {
  if (!options_.enable_cache || !Cacheable(day)) return false;
  if (stock < 0 || stock >= num_stocks_) return false;
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
  if (!snapshot) return false;
  if (Health() != HealthState::kServing) return false;
  std::shared_ptr<const DayScores> entry;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(CacheKey(snapshot->version(), day));
    if (it == cache_.end()) return false;
    entry = it->second;
  }
  if (metrics_) metrics_->cache_hits.fetch_add(1, std::memory_order_relaxed);
  out->model_version = snapshot->version();
  out->score = entry->scores[static_cast<size_t>(stock)];
  out->rank = entry->ranks[static_cast<size_t>(stock)];
  out->num_stocks = num_stocks_;
  out->stale = false;
  return true;
}

HealthState InferenceServer::HealthLocked(bool draining) {
  HealthState state;
  if (draining) {
    state = HealthState::kDraining;
  } else if (registry_->Current() == nullptr) {
    state = HealthState::kDegraded;
  } else if (options_.degraded_failure_threshold > 0 &&
             registry_->consecutive_reload_failures() >=
                 options_.degraded_failure_threshold) {
    state = HealthState::kDegraded;
  } else {
    state = HealthState::kServing;
  }
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
  bool draining;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining = !running_ || draining_;
  }
  return HealthLocked(draining);
}

std::string InferenceServer::HealthLine() {
  size_t depth;
  bool draining;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    draining = !running_ || draining_;
    depth = queue_.size();
  }
  const HealthState state = HealthLocked(draining);
  std::ostringstream out;
  out << HealthStateName(state) << " version=" << registry_->CurrentVersion()
      << " reload_failures=" << registry_->consecutive_reload_failures()
      << " queue=" << depth;
  return out.str();
}

void InferenceServer::BatchLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  while (true) {
    queue_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
    if (draining_ && queue_.empty()) break;
    // Micro-batch window: flush at max_batch requests or batch_timeout_us
    // after the batch's first request — but wake no later than the
    // earliest request deadline, so an expiring request is shed promptly
    // instead of after the full window. A drain flushes immediately.
    if (options_.batch_timeout_us > 0 && !draining_ &&
        static_cast<int64_t>(queue_.size()) < options_.max_batch) {
      auto wake = queue_.front().enqueue +
                  std::chrono::microseconds(options_.batch_timeout_us);
      for (const Pending& p : queue_) wake = std::min(wake, p.deadline);
      queue_cv_.wait_until(lock, wake, [this] {
        return draining_ ||
               static_cast<int64_t>(queue_.size()) >= options_.max_batch;
      });
    }
    // Shed everything whose deadline passed while queued, then take the
    // batch from what remains.
    std::vector<Pending> dead;
    std::vector<Pending> batch;
    {
      obs::Span assemble("serve.assemble", "serve");
      const auto now = std::chrono::steady_clock::now();
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->deadline <= now) {
          dead.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      const int64_t take = std::min<int64_t>(
          options_.max_batch, static_cast<int64_t>(queue_.size()));
      batch.reserve(static_cast<size_t>(take));
      for (int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    lock.unlock();
    for (Pending& p : dead) {
      admission_.Release();
      if (metrics_) metrics_->expired.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_value(Status::DeadlineExceeded(
          "deadline exceeded after ", obs::ElapsedMicrosSince(p.enqueue_us),
          "us in queue"));
    }
    for (size_t i = 0; i < batch.size(); ++i) admission_.Release();
    if (!batch.empty()) ExecuteBatch(std::move(batch));
    lock.lock();
  }
}

Result<std::shared_ptr<const InferenceServer::DayScores>>
InferenceServer::ScoresFor(const ModelSnapshot& snapshot, int64_t day) {
  const uint64_t key = CacheKey(snapshot.version(), day);
  const bool use_cache = options_.enable_cache && Cacheable(day);
  if (use_cache) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      if (metrics_) {
        metrics_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return it->second;
    }
  }
  // A failed ScoreFn (e.g. a day outside the data) ran no forward, so only
  // a successful one counts as a cache miss.
  Result<std::vector<float>> scores = score_fn_(snapshot, day);
  if (!scores.ok()) return scores.status();
  if (metrics_) {
    metrics_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    metrics_->forwards.fetch_add(1, std::memory_order_relaxed);
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
  if (use_cache) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_.emplace(key, entry).second) {
      cache_fifo_.push_back(key);
      while (static_cast<int64_t>(cache_fifo_.size()) >
             options_.cache_capacity) {
        cache_.erase(cache_fifo_.front());
        cache_fifo_.pop_front();
      }
    }
  }
  return std::shared_ptr<const DayScores>(std::move(entry));
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

void InferenceServer::ExecuteBatch(std::vector<Pending> batch) {
  obs::Span span("serve.batch", "serve");
  if (metrics_) {
    metrics_->batches.fetch_add(1, std::memory_order_relaxed);
    metrics_->batch_size.Record(batch.size());
  }
  // Pin exactly one published snapshot for the whole batch: every response
  // it produces maps to this version.
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_->Current();
  const bool degraded = (Health() == HealthState::kDegraded);
  // Days scored within this batch (coalesces same-day requests even when
  // the cross-batch cache is disabled).
  std::unordered_map<int64_t, Result<std::shared_ptr<const DayScores>>>
      by_day;
  for (Pending& p : batch) {
    Result<Scored> result = Status::Internal("unset");
    if (!snapshot) {
      // Graceful degradation: with no published model, fall back to the
      // last scores ever computed for this day (flagged stale) instead of
      // erroring; only a day never scored before fails.
      Scored stale = LastScoresFor(p.day);
      if (stale.day) {
        result = std::move(stale);
      } else {
        result = Status::NotFound("no model version published yet");
      }
    } else {
      auto it = by_day.find(p.day);
      if (it == by_day.end()) {
        it = by_day.emplace(p.day, ScoresFor(*snapshot, p.day)).first;
      }
      if (it->second.ok()) {
        result = Scored{snapshot->version(), it->second.ValueOrDie(),
                        degraded};
        RememberScores(p.day, snapshot->version(), it->second.ValueOrDie());
      } else {
        result = it->second.status();
      }
    }
    const bool ok = result.ok();
    if (metrics_) {
      // Clamped single-clock-source elapsed time: can never go negative or
      // wrap, even if the clock is skewed (obs/clock.h).
      metrics_->latency.Record(obs::ElapsedMicrosSince(p.enqueue_us));
      (ok ? metrics_->responses_ok : metrics_->responses_error)
          .fetch_add(1, std::memory_order_relaxed);
      if (ok && result.ValueOrDie().stale) {
        metrics_->stale_served.fetch_add(1, std::memory_order_relaxed);
      }
    }
    obs::Span reply("serve.reply", "serve");
    p.promise.set_value(std::move(result));
  }
}

}  // namespace rtgcn::serve
