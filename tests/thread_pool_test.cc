// Thread-pool unit tests: worker lifecycle, exception propagation out of
// ParallelFor, grain-size edge cases, and the deterministic chunked fold.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rtgcn {
namespace {

// Pins the thread count for one test and restores the default afterwards so
// the setting never leaks into other tests in the binary.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) { SetNumThreads(n); }
  ~ScopedNumThreads() { SetNumThreads(0); }
};

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ScopedNumThreads threads(4);
  constexpr int64_t kN = 10007;  // prime: last chunk is ragged
  std::vector<int> hits(kN, 0);
  ParallelFor(0, kN, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), int64_t{0}), kN);
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ScopedNumThreads threads(4);
  bool called = false;
  ParallelFor(5, 5, 8, [&](int64_t, int64_t) { called = true; });
  ParallelFor(9, 3, 8, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, RangeSmallerThanGrainRunsInlineOnce) {
  ScopedNumThreads threads(8);
  int calls = 0;
  std::thread::id body_thread;
  ParallelFor(2, 7, 100, [&](int64_t lo, int64_t hi) {
    ++calls;
    body_thread = std::this_thread::get_id();
    EXPECT_EQ(lo, 2);
    EXPECT_EQ(hi, 7);
  });
  EXPECT_EQ(calls, 1);
  // A single chunk never leaves the calling thread.
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ThreadPoolTest, GrainLargerThanRangeAndNonPositiveGrain) {
  ScopedNumThreads threads(4);
  EXPECT_EQ(NumChunks(0, 10, 1000), 1);
  EXPECT_EQ(NumChunks(0, 0, 16), 0);
  // grain <= 0 clamps to 1: one chunk per element, all indices covered.
  std::vector<int> hits(17, 0);
  ParallelFor(0, 17, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int i = 0; i < 17; ++i) EXPECT_EQ(hits[i], 1);
  EXPECT_EQ(NumChunks(0, 17, -3), 17);
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  // The set of (lo, hi) pairs the body sees must be a function of
  // (range, grain) only — this is the determinism contract.
  auto boundaries = [](int threads) {
    ScopedNumThreads scoped(threads);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> seen;
    ParallelFor(3, 1000, 37, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      seen.emplace_back(lo, hi);
    });
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  const auto at2 = boundaries(2);
  const auto at4 = boundaries(4);
  const auto at8 = boundaries(8);
  EXPECT_EQ(at2, at4);
  EXPECT_EQ(at2, at8);
  // Serial execution runs the body once over the whole range; its coverage
  // must equal the union of the parallel chunks.
  const auto at1 = boundaries(1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0].first, 3);
  EXPECT_EQ(at1[0].second, 1000);
  EXPECT_EQ(at2.front().first, 3);
  EXPECT_EQ(at2.back().second, 1000);
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ScopedNumThreads threads(4);
  auto throwing = [&] {
    ParallelFor(0, 256, 1, [&](int64_t lo, int64_t) {
      if (lo == 97) throw std::runtime_error("chunk 97 failed");
    });
  };
  EXPECT_THROW(throwing(), std::runtime_error);
  try {
    throwing();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 97 failed");
  }
  // The pool must have drained the failed job completely and accept new work.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 1000, 8, [&](int64_t lo, int64_t hi) {
    int64_t local = 0;
    for (int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

TEST(ThreadPoolTest, StartupShutdownAndRespawn) {
  ScopedNumThreads threads(4);
  std::atomic<int> touched{0};
  ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    touched.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(touched.load(), 64);
  // 4 threads = caller + 3 workers.
  EXPECT_EQ(internal::ThreadPool::Global().num_workers(), 3);

  internal::ThreadPool::Global().Shutdown();
  EXPECT_EQ(internal::ThreadPool::Global().num_workers(), 0);

  // The pool restarts lazily on the next parallel call.
  touched = 0;
  ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
    touched.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(touched.load(), 64);
  EXPECT_EQ(internal::ThreadPool::Global().num_workers(), 3);
}

TEST(ThreadPoolTest, ResizesWhenNumThreadsChanges) {
  ScopedNumThreads threads(2);
  ParallelFor(0, 16, 1, [](int64_t, int64_t) {});
  EXPECT_EQ(internal::ThreadPool::Global().num_workers(), 1);
  SetNumThreads(5);
  ParallelFor(0, 16, 1, [](int64_t, int64_t) {});
  EXPECT_EQ(internal::ThreadPool::Global().num_workers(), 4);
  SetNumThreads(1);
  // Serial path: the pool is bypassed entirely, workers linger untouched.
  std::thread::id body_thread;
  ParallelFor(0, 16, 1,
              [&](int64_t, int64_t) { body_thread = std::this_thread::get_id(); });
  EXPECT_EQ(body_thread, std::this_thread::get_id());
}

TEST(ThreadPoolTest, NestedParallelForInlinesWithoutDeadlock) {
  ScopedNumThreads threads(4);
  constexpr int64_t kOuter = 32;
  constexpr int64_t kInner = 100;
  std::vector<int64_t> sums(kOuter, 0);
  ParallelFor(0, kOuter, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t o = lo; o < hi; ++o) {
      // Inside a worker this must run inline on the same thread.
      ParallelFor(0, kInner, 8, [&](int64_t ilo, int64_t ihi) {
        for (int64_t i = ilo; i < ihi; ++i) sums[o] += i;
      });
    }
  });
  for (int64_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o], kInner * (kInner - 1) / 2);
  }
}

TEST(ThreadPoolTest, BackToBackJobsStress) {
  // Many consecutive short jobs maximize the window in which a late-waking
  // worker still holds the previous job's (stack-allocated) function
  // pointer; regression for a use-after-free between jobs.
  ScopedNumThreads threads(8);
  for (int round = 0; round < 3000; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(0, 64, 8, [&](int64_t lo, int64_t hi) {
      int64_t local = 0;
      for (int64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, TwoOutsideCallersEachGetTheirOwnResults) {
  // Two threads outside the pool (a trainer and a server, say) issue
  // parallel calls at the same time. The pool has one job slot: the caller
  // that finds it taken runs its chunks inline, so neither caller's job is
  // overwritten and nobody waits on the other's completion count.
  ScopedNumThreads threads(4);
  constexpr int kRounds = 400;
  std::atomic<int> failures{0};
  auto caller = [&failures](int64_t n, int64_t seed) {
    std::vector<int64_t> out(static_cast<size_t>(n));
    for (int round = 0; round < kRounds; ++round) {
      const int64_t offset = seed * 100000 + round;
      ParallelFor(0, n, 16, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) out[i] = i + offset;
      });
      for (int64_t i = 0; i < n; ++i) {
        if (out[i] != i + offset) {
          failures.fetch_add(1);
          break;
        }
      }
      const int64_t sum = ParallelReduce<int64_t>(
          0, n, 16, 0,
          [&](int64_t lo, int64_t hi) {
            int64_t s = 0;
            for (int64_t i = lo; i < hi; ++i) s += out[i];
            return s;
          },
          [](int64_t a, int64_t b) { return a + b; });
      if (sum != n * (n - 1) / 2 + n * offset) failures.fetch_add(1);
    }
  };
  std::thread first(caller, 4099, 1);
  std::thread second(caller, 3001, 2);
  first.join();
  second.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolTest, ParallelReduceMatchesSerialFoldBitwise) {
  // Per-chunk float sums folded in chunk order: the fold tree is fixed by
  // (range, grain), so every thread count produces the same bits.
  std::vector<float> data(5003);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (auto& v : data) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<float>(state >> 40) / 16777216.0f - 0.5f;
  }
  auto reduce = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return ParallelReduce<float>(
        0, static_cast<int64_t>(data.size()), 128, 0.0f,
        [&](int64_t lo, int64_t hi) {
          float s = 0.0f;
          for (int64_t i = lo; i < hi; ++i) s += data[i];
          return s;
        },
        [](float a, float b) { return a + b; });
  };
  const float at1 = reduce(1);
  for (int t : {2, 4, 8}) {
    const float att = reduce(t);
    EXPECT_EQ(at1, att) << "threads=" << t;  // bitwise, not approximate
  }
}

TEST(ThreadPoolTest, ParallelReduceEmptyRangeReturnsIdentity) {
  ScopedNumThreads threads(4);
  const float r = ParallelReduce<float>(
      10, 10, 4, -7.5f, [](int64_t, int64_t) { return 0.0f; },
      [](float a, float b) { return a + b; });
  EXPECT_EQ(r, -7.5f);
}

TEST(ThreadPoolTest, SetNumThreadsPinsAndResets) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
}

}  // namespace
}  // namespace rtgcn
