// Shared thread pool with deterministic data-parallel primitives.
//
// ParallelFor splits [begin, end) into fixed-width chunks of `grain`
// elements. Chunk boundaries depend only on the range and the grain — never
// on the number of threads — so any kernel whose chunks write disjoint
// outputs produces bit-identical results at every RTGCN_NUM_THREADS
// setting. ParallelReduce additionally combines per-chunk partials in chunk
// order (a fixed left fold), which keeps floating-point reductions
// reproducible across thread counts.
//
// With num_threads == 1 (or a single chunk, or when called from inside a
// pool worker) ParallelFor invokes the body once over the whole range on
// the calling thread — exactly the code path a serial build would take.
//
// Thread count resolution order: SetNumThreads / --num_threads flag >
// RTGCN_NUM_THREADS env var > hardware concurrency (capped).
#ifndef RTGCN_COMMON_THREAD_POOL_H_
#define RTGCN_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rtgcn {

/// Current thread-count setting (>= 1). Lazily initialized from the
/// RTGCN_NUM_THREADS environment variable, else hardware concurrency.
int NumThreads();

/// Sets the thread count. `n >= 1` pins it; `n == 0` resets to the
/// environment/hardware default. Existing pool workers are resized lazily
/// on the next parallel call.
void SetNumThreads(int n);

namespace internal {

/// \brief Lazily-started pool of NumThreads()-1 workers; the caller of
/// Run() participates as the remaining thread.
class ThreadPool {
 public:
  static ThreadPool& Global();

  /// Executes fn(chunk) for every chunk in [0, num_chunks) across the pool,
  /// blocking until all complete. Rethrows the first exception a chunk
  /// threw. Must be called from outside the pool (nested calls are the
  /// caller's responsibility — ParallelFor inlines them). The pool serves
  /// one outside caller at a time: a caller that finds it busy runs all its
  /// chunks inline on its own thread, which gives the same result because
  /// chunk boundaries never depend on the thread count.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& fn);

  /// Joins all workers. The pool restarts lazily on the next Run().
  void Shutdown();

  /// Number of live worker threads (excluding the caller).
  int num_workers();

  /// True when the calling thread is executing inside a parallel region.
  static bool InParallelRegion();

  ~ThreadPool();

 private:
  ThreadPool() = default;
  void EnsureWorkersLocked(int target, std::unique_lock<std::mutex>& lock);
  void WorkerLoop();
  // Claims and executes chunks of the current job until none remain.
  void WorkChunks(const std::function<void(int64_t)>* fn, int64_t num_chunks);

  std::mutex caller_mu_;  // held by the one outside caller the pool serves
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // Run() waits for completion
  std::vector<std::thread> workers_;

  // Current job; all guarded by mu_ except the chunk cursor.
  const std::function<void(int64_t)>* job_fn_ = nullptr;
  int64_t job_chunks_ = 0;
  int64_t done_chunks_ = 0;
  int64_t active_ = 0;  // workers currently inside the job
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::atomic<int64_t> next_chunk_{0};
};

}  // namespace internal

/// Number of fixed-width chunks ParallelFor uses for a range and grain.
inline int64_t NumChunks(int64_t begin, int64_t end, int64_t grain) {
  if (end <= begin) return 0;
  grain = std::max<int64_t>(grain, 1);
  return (end - begin + grain - 1) / grain;
}

/// Runs fn(sub_begin, sub_end) over [begin, end) in chunks of `grain`.
/// Chunk boundaries depend only on the range and grain; with one thread the
/// body runs once over the whole range on the calling thread.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(grain, 1);
  const int64_t num_chunks = NumChunks(begin, end, grain);
  if (NumThreads() == 1 || num_chunks == 1 ||
      internal::ThreadPool::InParallelRegion()) {
    fn(begin, end);
    return;
  }
  std::function<void(int64_t)> chunk = [&](int64_t c) {
    const int64_t cb = begin + c * grain;
    fn(cb, std::min(end, cb + grain));
  };
  internal::ThreadPool::Global().Run(num_chunks, chunk);
}

/// Deterministic chunked reduction: computes chunk_fn(sub_begin, sub_end)
/// for each fixed-width chunk and left-folds the partials in chunk order
/// with combine(acc, partial). The fold tree depends only on the range and
/// grain, so the result is identical at every thread count (for exact
/// operations like max/min it also equals the serial fold).
template <typename T, typename ChunkFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T identity,
                 ChunkFn&& chunk_fn, CombineFn&& combine) {
  if (end <= begin) return identity;
  grain = std::max<int64_t>(grain, 1);
  const int64_t num_chunks = NumChunks(begin, end, grain);
  std::vector<T> partials(static_cast<size_t>(num_chunks), identity);
  ParallelFor(0, num_chunks, 1, [&](int64_t cb, int64_t ce) {
    for (int64_t c = cb; c < ce; ++c) {
      const int64_t b = begin + c * grain;
      partials[static_cast<size_t>(c)] = chunk_fn(b, std::min(end, b + grain));
    }
  });
  T acc = std::move(identity);
  for (int64_t c = 0; c < num_chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[static_cast<size_t>(c)]));
  }
  return acc;
}

}  // namespace rtgcn

#endif  // RTGCN_COMMON_THREAD_POOL_H_
