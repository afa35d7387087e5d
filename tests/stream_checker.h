// Streamed-dataset equivalence harness (kernel_checker.h style).
//
// The streaming pipeline grows a market::WindowDataset one close at a time
// with AppendDay, and promises it equals a WindowDataset built from the
// whole panel so far — after every day, at every thread count. The
// checker replays a stream of DayUpdates through AppendDay while holding
// the authoritative panel itself, and compares Features(day) and the
// gathered Features(day, slots) against a fresh WindowDataset with exact
// float equality. Thread counts {1, 2, 4, 8} are swept with SetNumThreads
// so the contract holds whatever the pool is set to.
#ifndef RTGCN_TESTS_STREAM_CHECKER_H_
#define RTGCN_TESTS_STREAM_CHECKER_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "market/dataset.h"
#include "stream/events.h"
#include "tensor/tensor.h"

namespace rtgcn {

/// Expects two tensors to be exactly (bit-)equal.
inline void ExpectTensorsBitEqual(const Tensor& expected, const Tensor& got,
                                  const std::string& context) {
  ASSERT_TRUE(expected.defined() && got.defined()) << context;
  ASSERT_EQ(expected.shape(), got.shape()) << context;
  const float* pe = expected.data();
  const float* pg = got.data();
  int64_t mismatches = 0;
  constexpr int64_t kMaxReported = 8;
  for (int64_t i = 0; i < expected.numel(); ++i) {
    if (pe[i] == pg[i]) continue;
    if (++mismatches <= kMaxReported) {
      ADD_FAILURE() << context << ": element " << i << " expected " << pe[i]
                    << " got " << pg[i];
    }
  }
  EXPECT_EQ(mismatches, 0) << context << ": " << mismatches << " of "
                           << expected.numel() << " elements differ";
}

/// Replays `updates` through a dataset seeded with `day0_close` and grown
/// by AppendDay, checking it against a dataset built from the whole panel
/// after every day: Features(day) in full and gathered to `slots`, bit for
/// bit. Returns the last day's features.
inline Tensor ReplayAndCheckDataset(
    int64_t window, int64_t num_features,
    const std::vector<float>& day0_close,
    const std::vector<stream::DayUpdate>& updates,
    const std::vector<int64_t>& slots, const std::string& context) {
  const int64_t n = static_cast<int64_t>(day0_close.size());
  std::vector<float> panel = day0_close;
  market::WindowDataset grown(Tensor({1, n}, day0_close), window,
                              num_features);
  Tensor last;
  for (const stream::DayUpdate& du : updates) {
    grown.AppendDay(du.close);
    panel.insert(panel.end(), du.close.begin(), du.close.end());
    const int64_t day = grown.num_days() - 1;
    if (day < grown.first_day()) continue;
    const std::string at = context + " day " + std::to_string(du.day);
    market::WindowDataset batch(Tensor({day + 1, n}, panel), window,
                                num_features);
    const Tensor expected = batch.Features(day);
    last = grown.Features(day);
    ExpectTensorsBitEqual(expected, last, at);
    // The batch features gathered column by column to `slots`.
    Tensor gathered({window, static_cast<int64_t>(slots.size()),
                     num_features});
    float* pg = gathered.data();
    for (int64_t u = 0; u < window; ++u) {
      for (const int64_t slot : slots) {
        const float* col =
            expected.data() + (u * n + slot) * num_features;
        pg = std::copy_n(col, num_features, pg);
      }
    }
    ExpectTensorsBitEqual(gathered, grown.Features(day, slots),
                          at + " gathered");
  }
  return last;
}

/// Runs `fn` at num_threads = 1 (the exact serial path) and {2, 4, 8},
/// restoring the default afterwards. Combined with the bit-equal checks
/// above this enforces the "at every thread count" half of the contract.
template <typename Fn>
void ForEachThreadCount(Fn&& fn) {
  for (int threads : {1, 2, 4, 8}) {
    SetNumThreads(threads);
    fn(threads);
  }
  SetNumThreads(0);
}

}  // namespace rtgcn

#endif  // RTGCN_TESTS_STREAM_CHECKER_H_
