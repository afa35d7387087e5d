#include "stream/feature_window.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rtgcn::stream {

SlidingFeatureWindow::SlidingFeatureWindow(int64_t num_slots, int64_t window,
                                           int64_t num_features)
    : num_slots_(num_slots), window_(window), num_features_(num_features) {
  RTGCN_CHECK_GE(window_, 1);
  RTGCN_CHECK(num_features_ >= 1 && num_features_ <= market::kMaxFeatures)
      << "num_features " << num_features_;
  prefix_.assign(static_cast<size_t>(num_slots_), 0.0);  // row 0 (all zero)
  features_ = Tensor::Zeros({window_, num_slots_, num_features_});
}

float SlidingFeatureWindow::MovingAverage(int64_t t, int64_t slot,
                                          int64_t period) const {
  // Same expression as WindowDataset::MovingAverage: prefix-sum difference
  // truncated at the series start, averaged in double.
  const int64_t n = num_slots_;
  const int64_t begin = std::max<int64_t>(0, t - period + 1);
  const double sum =
      prefix_[static_cast<size_t>((t + 1) * n + slot)] -
      prefix_[static_cast<size_t>(begin * n + slot)];
  return static_cast<float>(sum / static_cast<double>(t + 1 - begin));
}

void SlidingFeatureWindow::RecomputeColumn(int64_t slot) {
  // Mirrors WindowDataset::Features for one stock: anchor at the current
  // day's close, window of MA features behind it.
  const int64_t t = day();
  const int64_t n = num_slots_;
  float* px = features_.data();
  const float anchor = panel_[static_cast<size_t>(t * n + slot)];
  RTGCN_DCHECK(anchor > 0);
  const float inv = 1.0f / anchor;
  for (int64_t u = 0; u < window_; ++u) {
    const int64_t d = t - window_ + 1 + u;
    for (int64_t f = 0; f < num_features_; ++f) {
      px[(u * n + slot) * num_features_ + f] =
          MovingAverage(d, slot, market::kFeaturePeriods[f]) * inv;
    }
  }
}

void SlidingFeatureWindow::PushDay(const std::vector<float>& close) {
  RTGCN_CHECK_EQ(static_cast<int64_t>(close.size()), num_slots_);
  const int64_t n = num_slots_;
  panel_.insert(panel_.end(), close.begin(), close.end());
  prefix_.resize(prefix_.size() + static_cast<size_t>(n));
  const size_t prev = static_cast<size_t>(days_) * static_cast<size_t>(n);
  const size_t cur = prev + static_cast<size_t>(n);
  for (int64_t i = 0; i < n; ++i) {
    prefix_[cur + static_cast<size_t>(i)] =
        prefix_[prev + static_cast<size_t>(i)] +
        close[static_cast<size_t>(i)];
  }
  ++days_;
  if (!ready()) return;
  // Columns are independent per stock (no cross-stock accumulation), so a
  // chunked parallel sweep is bit-identical at any thread count.
  ParallelFor(0, num_slots_, 16,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) RecomputeColumn(i);
              });
}

Tensor SlidingFeatureWindow::FeaturesForSlots(
    const std::vector<int64_t>& slots) const {
  const int64_t n_sub = static_cast<int64_t>(slots.size());
  Tensor out({window_, n_sub, num_features_});
  float* po = out.data();
  const float* px = features_.data();
  for (int64_t u = 0; u < window_; ++u) {
    for (int64_t k = 0; k < n_sub; ++k) {
      const int64_t slot = slots[static_cast<size_t>(k)];
      RTGCN_DCHECK(slot >= 0 && slot < num_slots_);
      std::copy_n(px + (u * num_slots_ + slot) * num_features_, num_features_,
                  po + (u * n_sub + k) * num_features_);
    }
  }
  return out;
}

Tensor SlidingFeatureWindow::PanelSnapshot() const {
  Tensor out({days_, num_slots_});
  std::copy(panel_.begin(), panel_.end(), out.data());
  return out;
}

Tensor SlidingFeatureWindow::PanelForSlots(
    const std::vector<int64_t>& slots) const {
  const int64_t n_sub = static_cast<int64_t>(slots.size());
  Tensor out({days_, n_sub});
  float* po = out.data();
  for (int64_t t = 0; t < days_; ++t) {
    for (int64_t k = 0; k < n_sub; ++k) {
      po[t * n_sub + k] =
          panel_[static_cast<size_t>(t * num_slots_ +
                                     slots[static_cast<size_t>(k)])];
    }
  }
  return out;
}

}  // namespace rtgcn::stream
