#include "serve/admission.h"

#include <algorithm>

namespace rtgcn::serve {

AdmissionController::AdmissionController(Options options)
    : options_(options) {
  options_.capacity = std::max<int64_t>(options_.capacity, 1);
}

Status AdmissionController::Admit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return Status::Unavailable("draining: no new ", options_.what,
                               " admitted");
  }
  if (in_use_ >= options_.capacity) {
    return Status::Unavailable(options_.what, " at capacity (",
                               options_.capacity, ")");
  }
  ++in_use_;
  return Status::OK();
}

void AdmissionController::Release() {
  // Notify under the lock: a WaitIdle() caller may destroy the gate as
  // soon as it can observe in_use_ == 0.
  std::lock_guard<std::mutex> lock(mu_);
  if (in_use_ > 0) --in_use_;
  if (in_use_ == 0) cv_.notify_all();
}

void AdmissionController::CloseForDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

void AdmissionController::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return in_use_ == 0; });
}

void AdmissionController::Reopen() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = false;
}

int64_t AdmissionController::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

}  // namespace rtgcn::serve
