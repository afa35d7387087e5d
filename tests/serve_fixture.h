// Shared fixtures for the serving tests (serve_test, chaos_test,
// protocol_fuzz_test): a tiny linear ranker over a deterministic price
// panel, and HeldScoreFn, a stub forward that parks every call on a latch
// so a test can hold a forward in flight for as long as it needs.
#ifndef RTGCN_TESTS_SERVE_FIXTURE_H_
#define RTGCN_TESTS_SERVE_FIXTURE_H_

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "harness/checkpoint.h"
#include "harness/gradient_predictor.h"
#include "market/dataset.h"
#include "nn/linear.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace rtgcn::serve {

class LinearRanker : public harness::GradientPredictor {
 public:
  explicit LinearRanker(int64_t num_features, uint64_t seed = 1)
      : rng_(seed), linear_(num_features, 1, &rng_) {}

  std::string name() const override { return "LinearRanker"; }

 protected:
  nn::Module* module() override { return &linear_; }
  ag::VarPtr Forward(const Tensor& features, Rng*) override {
    const int64_t t_len = features.dim(0);
    const int64_t n = features.dim(1);
    const int64_t d = features.dim(2);
    auto x = ag::Constant(features);
    auto last = ag::Reshape(ag::SliceOp(x, 0, t_len - 1, t_len), {n, d});
    return ag::Reshape(linear_.Forward(last), {n});
  }
  float alpha() const override { return 0.0f; }

 private:
  Rng rng_;
  nn::Linear linear_;
};

inline market::WindowDataset MakePanel(int64_t days = 90, int64_t n = 10) {
  Rng rng(17);
  Tensor prices({days, n});
  for (int64_t i = 0; i < n; ++i) prices.at({0, i}) = 50.0f + 2.0f * i;
  for (int64_t t = 1; t < days; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      const float drift = 0.002f * static_cast<float>((i % 5) - 2);
      const float noise = static_cast<float>(rng.Gaussian(0, 0.001));
      prices.at({t, i}) = prices.at({t - 1, i}) * (1.0f + drift + noise);
    }
  }
  return market::WindowDataset(prices, /*window=*/5, /*num_features=*/2);
}

inline ServableFactory MakeFactory() {
  return [] { return WrapPredictor(std::make_unique<LinearRanker>(2)); };
}

/// Exports an untrained LinearRanker as checkpoint `epoch` in `dir`: a
/// loadable snapshot for servers whose ScoreFn ignores the model.
inline void ExportUntrained(const std::string& dir, int64_t epoch) {
  harness::CheckpointManager manager({dir, 1, 0});
  ASSERT_TRUE(manager.Init().ok());
  LinearRanker model(2);
  ASSERT_TRUE(model.ExportSnapshot(manager.CheckpointPath(epoch)).ok());
}

/// Deterministic all-stock scores the stub forwards return for `day`.
inline std::vector<float> StubScores(int64_t day, int64_t num_stocks) {
  std::vector<float> scores(static_cast<size_t>(num_stocks));
  for (int64_t i = 0; i < num_stocks; ++i) {
    scores[static_cast<size_t>(i)] =
        static_cast<float>((i * 7 + day * 3) % 11) * 0.125f -
        static_cast<float>(i) * 1e-3f;
  }
  return scores;
}

/// \brief Stub ScoreFn whose calls block until Release(); counts calls.
/// Days outside [0, max_day] fail like a dataset's out-of-range day.
class HeldScoreFn {
 public:
  explicit HeldScoreFn(int64_t num_stocks, int64_t max_day = 1000)
      : num_stocks_(num_stocks), max_day_(max_day) {}

  InferenceServer::ScoreFn fn() {
    return [this](const ModelSnapshot&,
                  int64_t day) -> Result<std::vector<float>> {
      if (day < 0 || day > max_day_) {
        return Status::InvalidArgument("day ", day, " outside the stub");
      }
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      return StubScores(day, num_stocks_);
    };
  }

  /// Blocks until `n` calls have entered the stub.
  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }

  /// Like WaitEntered, but gives up after `timeout`; false if it did.
  bool WaitEnteredFor(int n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return entered_ >= n; });
  }

  /// Lets every held and every later call return.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int entered() {
    std::lock_guard<std::mutex> lock(mu_);
    return entered_;
  }

 private:
  const int64_t num_stocks_;
  const int64_t max_day_;
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_TESTS_SERVE_FIXTURE_H_
