#include "market/dataset.h"

#include <algorithm>

#include "common/logging.h"

namespace rtgcn::market {

WindowDataset::WindowDataset(Tensor prices, int64_t window,
                             int64_t num_features)
    : prices_(std::move(prices)), window_(window), num_features_(num_features) {
  RTGCN_CHECK_EQ(prices_.ndim(), 2);
  RTGCN_CHECK_GE(window_, 1);
  RTGCN_CHECK(num_features_ >= 1 && num_features_ <= kMaxFeatures)
      << "num_features " << num_features_;
  num_days_ = prices_.dim(0);
  prefix_.assign((num_days_ + 1) * num_stocks(), 0.0);
  for (int64_t t = 0; t < num_days_; ++t) SumPrefixRow(t);
}

void WindowDataset::SumPrefixRow(int64_t t) {
  const int64_t n = num_stocks();
  const float* p = prices_.data() + t * n;
  const double* prev = prefix_.data() + t * n;
  double* cur = prefix_.data() + (t + 1) * n;
  for (int64_t i = 0; i < n; ++i) cur[i] = prev[i] + p[i];
}

void WindowDataset::AppendDay(const std::vector<float>& close) {
  const int64_t n = num_stocks();
  RTGCN_CHECK_EQ(static_cast<int64_t>(close.size()), n);
  if (num_days_ == prices_.dim(0)) {
    // Full, as a caller's panel always is: move to a private panel with
    // room to double, so the caller's storage is never written and the
    // copies amortize to O(N) a day.
    Tensor grown({2 * num_days_ + 1, n});
    std::copy_n(prices_.data(), num_days_ * n, grown.data());
    prices_ = std::move(grown);
  }
  std::copy(close.begin(), close.end(), prices_.data() + num_days_ * n);
  prefix_.resize(prefix_.size() + static_cast<size_t>(n));
  SumPrefixRow(num_days_);
  ++num_days_;
}

int64_t WindowDataset::first_day() const {
  const int64_t max_period = kFeaturePeriods[num_features_ - 1];
  // The oldest window day needs `max_period` prior days for its MA.
  return window_ - 1 + max_period - 1;
}

float WindowDataset::MovingAverage(int64_t t, int64_t i, int64_t period) const {
  const int64_t n = num_stocks();
  const int64_t begin = std::max<int64_t>(0, t - period + 1);
  const double sum = prefix_[(t + 1) * n + i] - prefix_[begin * n + i];
  return static_cast<float>(sum / static_cast<double>(t + 1 - begin));
}

void WindowDataset::WriteStock(int64_t t, int64_t i, int64_t col,
                               int64_t cols, float* out) const {
  const float anchor = prices_.data()[t * num_stocks() + i];
  RTGCN_DCHECK(anchor > 0);
  const float inv = 1.0f / anchor;
  for (int64_t u = 0; u < window_; ++u) {
    const int64_t day = t - window_ + 1 + u;
    for (int64_t f = 0; f < num_features_; ++f) {
      out[(u * cols + col) * num_features_ + f] =
          MovingAverage(day, i, kFeaturePeriods[f]) * inv;
    }
  }
}

Tensor WindowDataset::Features(int64_t t) const {
  RTGCN_CHECK(t >= first_day() && t < num_days())
      << "prediction day " << t << " outside valid range";
  const int64_t n = num_stocks();
  Tensor x({window_, n, num_features_});
  float* px = x.data();
  for (int64_t i = 0; i < n; ++i) WriteStock(t, i, i, n, px);
  return x;
}

Tensor WindowDataset::Features(int64_t t,
                               const std::vector<int64_t>& slots) const {
  RTGCN_CHECK(t >= first_day() && t < num_days())
      << "prediction day " << t << " outside valid range";
  const int64_t cols = static_cast<int64_t>(slots.size());
  Tensor x({window_, cols, num_features_});
  float* px = x.data();
  for (int64_t c = 0; c < cols; ++c) {
    const int64_t i = slots[static_cast<size_t>(c)];
    RTGCN_CHECK(i >= 0 && i < num_stocks()) << "slot " << i;
    WriteStock(t, i, c, cols, px);
  }
  return x;
}

Tensor WindowDataset::Prices(const std::vector<int64_t>& slots) const {
  const int64_t n = num_stocks();
  const int64_t cols = static_cast<int64_t>(slots.size());
  for (const int64_t i : slots) {
    RTGCN_CHECK(i >= 0 && i < n) << "slot " << i;
  }
  Tensor out({num_days_, cols});
  const float* p = prices_.data();
  float* po = out.data();
  for (int64_t t = 0; t < num_days_; ++t) {
    for (int64_t c = 0; c < cols; ++c) {
      po[t * cols + c] = p[t * n + slots[static_cast<size_t>(c)]];
    }
  }
  return out;
}

Tensor WindowDataset::Labels(int64_t t) const {
  RTGCN_CHECK(t >= first_day() && t <= last_day());
  const int64_t n = num_stocks();
  Tensor y({n});
  const float* prices = prices_.data();
  float* py = y.data();
  for (int64_t i = 0; i < n; ++i) {
    const float cur = prices[t * n + i];
    const float next = prices[(t + 1) * n + i];
    py[i] = (next - cur) / cur;
  }
  return y;
}

std::vector<int64_t> WindowDataset::Days(int64_t begin, int64_t end) const {
  begin = std::max(begin, first_day());
  end = std::min(end, last_day());
  std::vector<int64_t> days;
  for (int64_t t = begin; t <= end; ++t) days.push_back(t);
  return days;
}

DatasetSplit SplitByDay(const WindowDataset& dataset, int64_t boundary) {
  DatasetSplit split;
  split.train_days = dataset.Days(dataset.first_day(), boundary - 1);
  split.test_days = dataset.Days(boundary, dataset.last_day());
  return split;
}

}  // namespace rtgcn::market
