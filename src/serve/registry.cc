#include "serve/registry.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace rtgcn::serve {

ModelRegistry::ModelRegistry(Options options, ServableFactory factory,
                             Metrics* metrics)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      metrics_(metrics),
      manager_(harness::CheckpointManager::Options{options_.dir, /*every=*/0,
                                                   /*keep=*/0}) {}

ModelRegistry::~ModelRegistry() { Stop(); }

Status ModelRegistry::Start() {
  RTGCN_RETURN_NOT_OK(manager_.Init());
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    if (started_) return Status::OK();
    started_ = true;
    stop_ = false;
  }
  const bool promoted = PollOnce();
  if (options_.reload_interval_ms > 0) {
    poller_ = std::thread([this] { PollLoop(); });
  }
  if (!promoted && Current() == nullptr) {
    return Status::NotFound("no loadable checkpoint in ", options_.dir,
                            " yet; serving waits for the first promotion");
  }
  return Status::OK();
}

void ModelRegistry::Stop() {
  {
    std::lock_guard<std::mutex> lock(poll_mu_);
    if (!started_) return;
    started_ = false;
    stop_ = true;
  }
  poll_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
}

int64_t ModelRegistry::CurrentVersion() const {
  const std::shared_ptr<const ModelSnapshot> snap = Current();
  return snap ? snap->version() : -1;
}

void ModelRegistry::Unpublish() {
  std::lock_guard<std::mutex> publish(current_mu_);
  if (current_) {
    RTGCN_LOG(Warning) << "serve: unpublishing version "
                       << current_->version();
  }
  current_.reset();
}

bool ModelRegistry::PollOnce() {
  std::lock_guard<std::mutex> lock(reload_mu_);
  auto epochs = manager_.ListCheckpoints();
  if (!epochs.ok()) return false;
  const int64_t served = CurrentVersion();
  const auto& list = epochs.ValueOrDie();
  // Newest-first over checkpoints newer than the served version — the same
  // skip-the-corrupt discipline as CheckpointManager::LoadLatest, except a
  // failure can never demote the registry below what it already serves.
  for (auto it = list.rbegin(); it != list.rend() && *it > served; ++it) {
    const std::string path = manager_.CheckpointPath(*it);
    auto snap = ModelSnapshot::Load(factory_, path, *it);
    if (snap.ok()) {
      {
        std::lock_guard<std::mutex> publish(current_mu_);
        current_ = snap.MoveValueOrDie();
      }
      consecutive_failures_.store(0, std::memory_order_relaxed);
      if (metrics_) {
        metrics_->reload_success.Increment();
      }
      RTGCN_LOG(Info) << "serve: promoted checkpoint " << path
                      << " as version " << *it;
      return true;
    }
    consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_) {
      metrics_->reload_failure.Increment();
    }
    RTGCN_LOG(Warning) << "serve: skipping unloadable checkpoint " << path
                       << ": " << snap.status().ToString();
  }
  return false;
}

void ModelRegistry::PollLoop() {
  const auto interval = std::chrono::milliseconds(
      options_.reload_interval_ms > 0 ? options_.reload_interval_ms : 1000);
  std::unique_lock<std::mutex> lock(poll_mu_);
  while (!stop_) {
    if (poll_cv_.wait_for(lock, interval, [this] { return stop_; })) break;
    lock.unlock();
    PollOnce();
    lock.lock();
  }
}

}  // namespace rtgcn::serve
