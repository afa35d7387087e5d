// Feature pipeline and window dataset (paper §V-A).
//
// Per the paper's processing steps:
//   Step 1 — each window's features are normalized by the closing price at
//            the *last* day of the window (no future leakage);
//   Step 2 — features are the closing price and its 5/10/20-day moving
//            averages (Table VIII's feature combinations);
//   Step 3 — the label is the next-day return ratio, Eq. (10);
//   Step 4 — chronological train/test split.
//
// The same class serves batch and streaming: a batch dataset wraps the
// caller's whole panel, and a streamed one starts from the first close and
// grows by AppendDay, so both compute features from one code path
// (DESIGN.md §14).
#ifndef RTGCN_MARKET_DATASET_H_
#define RTGCN_MARKET_DATASET_H_

#include <vector>

#include "tensor/tensor.h"

namespace rtgcn::market {

/// Moving-average periods backing feature index f (Table VIII): the first
/// feature is the raw close (period 1).
inline constexpr int64_t kFeaturePeriods[] = {1, 5, 10, 20};
inline constexpr int64_t kMaxFeatures = 4;

/// \brief Sliding-window view over a [days, N] price panel.
///
/// A "sample" is indexed by its prediction day t: features cover days
/// (t - window + 1) ... t and the label is the day t+1 return ratio.
class WindowDataset {
 public:
  /// `num_features` in [1, 4] selects a prefix of kFeaturePeriods. The
  /// dataset shares `prices`' storage and never writes to it.
  WindowDataset(Tensor prices, int64_t window, int64_t num_features);

  // Move-only: a copy would share the spare rows AppendDay writes into.
  WindowDataset(WindowDataset&&) = default;
  WindowDataset& operator=(WindowDataset&&) = default;
  WindowDataset(const WindowDataset&) = delete;
  WindowDataset& operator=(const WindowDataset&) = delete;

  int64_t num_days() const { return num_days_; }
  int64_t num_stocks() const { return prices_.dim(1); }
  int64_t window() const { return window_; }
  int64_t num_features() const { return num_features_; }

  /// Earliest valid prediction day (enough history for window + longest MA).
  int64_t first_day() const;
  /// Latest valid prediction day (t + 1 must exist for the label).
  int64_t last_day() const { return num_days() - 2; }

  /// Window features for prediction day t: [window, N, num_features],
  /// normalized by each stock's closing price at day t.
  Tensor Features(int64_t t) const;

  /// Features(t) gathered to `slots`: [window, |slots|, num_features]. A
  /// stock's features read only its own prices, so this equals a dataset
  /// over the gathered panel, bit for bit.
  Tensor Features(int64_t t, const std::vector<int64_t>& slots) const;

  /// Price panel gathered to `slots`: [num_days, |slots|].
  Tensor Prices(const std::vector<int64_t>& slots) const;

  /// Appends day num_days() at `close` (one price per stock): one panel
  /// row and one prefix-sum row, summed as the constructor sums, so a grown
  /// dataset equals one built from the whole panel. Amortized O(N).
  void AppendDay(const std::vector<float>& close);

  /// Next-day return ratios r_i^{t+1} = (p^{t+1} - p^t) / p^t: [N].
  Tensor Labels(int64_t t) const;

  /// All valid prediction days t with begin <= t <= end (clamped to the
  /// valid range).
  std::vector<int64_t> Days(int64_t begin, int64_t end) const;

  /// Row-major panel, day t at row t. After an AppendDay it may hold more
  /// rows than num_days(): those past num_days() are unused capacity.
  const Tensor& prices() const { return prices_; }

  /// Moving average of `period` ending at day t for stock i (uses a prefix
  /// sum; truncated at the series start).
  float MovingAverage(int64_t t, int64_t i, int64_t period) const;

 private:
  /// Writes stock i's features for day t into column `col` of the
  /// [window, cols, num_features] buffer `out`.
  void WriteStock(int64_t t, int64_t i, int64_t col, int64_t cols,
                  float* out) const;
  /// Prefix-sum row t + 1 from row t and day t's prices.
  void SumPrefixRow(int64_t t);

  Tensor prices_;
  int64_t num_days_ = 0;
  int64_t window_;
  int64_t num_features_;
  std::vector<double> prefix_;  // [days+1, N] prefix sums of prices
};

/// \brief Chronological split: all valid days before `boundary` train, the
/// rest test (paper Table II's date split).
struct DatasetSplit {
  std::vector<int64_t> train_days;
  std::vector<int64_t> test_days;
};

DatasetSplit SplitByDay(const WindowDataset& dataset, int64_t boundary);

}  // namespace rtgcn::market

#endif  // RTGCN_MARKET_DATASET_H_
