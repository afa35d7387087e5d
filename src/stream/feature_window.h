// SlidingFeatureWindow: the model's [window, N, F] feature tensor,
// maintained as closes arrive (DESIGN.md §14).
//
// The window is an append-only [days, N] price panel with per-stock prefix
// sums; PushDay appends one row and recomputes every stock's feature
// column, one O(N × window × F) sweep per day. The feature math is exactly
// market::WindowDataset's (close + moving averages, normalized by the
// prediction day's close), and the prefix sums have the same layout and
// accumulation order as WindowDataset's, so the maintained tensor is
// BIT-IDENTICAL to
//   WindowDataset(PanelSnapshot(), window, num_features).Features(day())
// after every day — tests/stream_checker.h enforces this at every thread
// count (a column depends only on its own stock's history, so the sweep
// parallelizes per stock without a cross-stock reduction).
#ifndef RTGCN_STREAM_FEATURE_WINDOW_H_
#define RTGCN_STREAM_FEATURE_WINDOW_H_

#include <cstdint>
#include <vector>

#include "market/dataset.h"
#include "tensor/tensor.h"

namespace rtgcn::stream {

/// \brief Feature window over an append-only daily price panel.
class SlidingFeatureWindow {
 public:
  /// `window` and `num_features` as in market::WindowDataset (features are
  /// a prefix of kFeaturePeriods).
  SlidingFeatureWindow(int64_t num_slots, int64_t window,
                       int64_t num_features);

  int64_t num_slots() const { return num_slots_; }
  int64_t window() const { return window_; }
  int64_t num_features() const { return num_features_; }

  /// Index of the newest day; -1 while empty.
  int64_t day() const { return days_ - 1; }
  int64_t num_days() const { return days_; }

  /// Earliest day with enough history for a full feature window (same
  /// formula as WindowDataset::first_day).
  int64_t first_valid_day() const {
    return window_ - 1 + market::kFeaturePeriods[num_features_ - 1] - 1;
  }
  bool ready() const { return day() >= first_valid_day(); }

  /// Appends a completed day at its closing prices and recomputes the
  /// features for it.
  void PushDay(const std::vector<float>& close);

  /// Feature tensor [window, N, F] for the current day — always current;
  /// returns a copy of the maintained buffer.
  Tensor Features() const { return features_; }

  /// Features gathered to a slot subset, [window, |slots|, F] — the view a
  /// model trained on that sub-universe scores. Per-stock feature math
  /// commutes with gathering, so this equals WindowDataset over the
  /// gathered panel bit-for-bit.
  Tensor FeaturesForSlots(const std::vector<int64_t>& slots) const;

  /// Copy of the full price panel [num_days, N] — the reference input for
  /// checkers and oracles.
  Tensor PanelSnapshot() const;

  /// Panel gathered to a slot subset, [num_days, |slots|] — batch-training
  /// input for a sub-universe refit.
  Tensor PanelForSlots(const std::vector<int64_t>& slots) const;

 private:
  void RecomputeColumn(int64_t slot);
  float MovingAverage(int64_t t, int64_t slot, int64_t period) const;

  int64_t num_slots_;
  int64_t window_;
  int64_t num_features_;

  int64_t days_ = 0;  ///< rows in the panel

  /// Row-major [days, N] price panel; grows by one row per day.
  std::vector<float> panel_;
  /// Row-major [days + 1, N] per-stock prefix sums — same layout and
  /// accumulation order as WindowDataset's, so MA values match bit-for-bit.
  std::vector<double> prefix_;

  /// Maintained [window, N, F] features for the current day; valid once
  /// ready().
  Tensor features_;
};

}  // namespace rtgcn::stream

#endif  // RTGCN_STREAM_FEATURE_WINDOW_H_
