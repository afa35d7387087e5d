// Streaming-window equivalence harness (kernel_checker.h style).
//
// stream::SlidingFeatureWindow promises its maintained feature tensor is
// BIT-IDENTICAL to market::WindowDataset recomputed from scratch over the
// same price panel — after every day, at every thread count. The checker
// replays a stream of DayUpdates through a
// window while holding the authoritative panel itself, and compares
// Features() (and gathered FeaturesForSlots views) against a fresh
// WindowDataset with exact float equality. Thread counts {1, 2, 4, 8} are
// swept with SetNumThreads, because the window's column updates
// parallelize per stock and the contract is that chunking cannot change a
// bit.
#ifndef RTGCN_TESTS_STREAM_CHECKER_H_
#define RTGCN_TESTS_STREAM_CHECKER_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "market/dataset.h"
#include "stream/events.h"
#include "stream/feature_window.h"
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

/// Asserts the window's maintained features equal a from-scratch
/// WindowDataset over the window's own panel snapshot, bit for bit.
inline void ExpectWindowMatchesBatch(const stream::SlidingFeatureWindow& w,
                                     const std::string& context) {
  if (!w.ready()) return;
  market::WindowDataset batch(w.PanelSnapshot(), w.window(),
                              w.num_features());
  ExpectTensorsBitEqual(batch.Features(w.day()), w.Features(), context);
}

/// Replays `updates` through a fresh SlidingFeatureWindow seeded with
/// `day0_close`, checking bit-identity against the batch recompute after
/// every PushDay. Returns the final panel snapshot.
inline Tensor ReplayAndCheckWindow(int64_t num_slots, int64_t window,
                                   int64_t num_features,
                                   const std::vector<float>& day0_close,
                                   const std::vector<stream::DayUpdate>& updates,
                                   const std::string& context) {
  stream::SlidingFeatureWindow w(num_slots, window, num_features);
  w.PushDay(day0_close);
  for (const stream::DayUpdate& du : updates) {
    w.PushDay(du.close);
    ExpectWindowMatchesBatch(w, context + " day " + std::to_string(du.day));
  }
  return w.PanelSnapshot();
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
