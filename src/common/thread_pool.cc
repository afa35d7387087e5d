#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>

#include "obs/trace.h"

namespace rtgcn {

namespace {

constexpr int kMaxDefaultThreads = 16;

// 0 = not yet resolved; resolved lazily so the env var can be read once.
std::atomic<int> g_num_threads{0};

int DefaultNumThreads() {
  if (const char* env = std::getenv("RTGCN_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, kMaxDefaultThreads);
}

}  // namespace

int NumThreads() {
  int n = g_num_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    n = DefaultNumThreads();
    g_num_threads.store(n, std::memory_order_relaxed);
  }
  return n;
}

void SetNumThreads(int n) {
  g_num_threads.store(n >= 1 ? n : DefaultNumThreads(),
                      std::memory_order_relaxed);
}

namespace internal {

namespace {
// Set while a thread (worker or caller) executes chunks; nested ParallelFor
// calls see it and run inline instead of deadlocking on the pool.
thread_local bool tl_in_parallel_region = false;
}  // namespace

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();  // leaked: outlives all users
  return *pool;
}

bool ThreadPool::InParallelRegion() { return tl_in_parallel_region; }

int ThreadPool::num_workers() {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::EnsureWorkersLocked(int target,
                                     std::unique_lock<std::mutex>& lock) {
  if (static_cast<int>(workers_.size()) == target) return;
  // Resize by draining the old crew and spawning a fresh one.
  if (!workers_.empty()) {
    stop_ = true;
    work_cv_.notify_all();
    std::vector<std::thread> old = std::move(workers_);
    workers_.clear();
    lock.unlock();
    for (std::thread& t : old) t.join();
    lock.lock();
    stop_ = false;
  }
  workers_.reserve(static_cast<size_t>(target));
  for (int i = 0; i < target; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  EnsureWorkersLocked(0, lock);
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::WorkChunks(const std::function<void(int64_t)>* fn,
                            int64_t num_chunks) {
  obs::Span span("pool.work", "pool");
  tl_in_parallel_region = true;
  int64_t executed = 0;
  for (;;) {
    const int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks) break;
    try {
      (*fn)(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    ++executed;
  }
  tl_in_parallel_region = false;
  if (executed > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    done_chunks_ += executed;
    if (done_chunks_ == job_chunks_) done_cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    {
      // Idle time shows up in the trace as its own span, so stalls between
      // jobs are visible next to pool.work spans on the same thread track.
      obs::Span idle("pool.idle", "pool");
      work_cv_.wait(lock, [&] {
        return stop_ || (job_fn_ != nullptr && generation_ != seen_generation);
      });
    }
    if (stop_) return;
    seen_generation = generation_;
    const std::function<void(int64_t)>* fn = job_fn_;
    const int64_t num_chunks = job_chunks_;
    ++active_;  // Run() cannot retire the job (and destroy *fn) until we leave
    lock.unlock();
    WorkChunks(fn, num_chunks);
    lock.lock();
    --active_;
    if (active_ == 0 && done_chunks_ == job_chunks_) done_cv_.notify_all();
  }
}

void ThreadPool::Run(int64_t num_chunks,
                     const std::function<void(int64_t)>& fn) {
  obs::Span span("pool.run", "pool");
  std::unique_lock<std::mutex> caller(caller_mu_, std::try_to_lock);
  if (!caller.owns_lock()) {
    // Another outside caller holds the job slot: run every chunk here
    // rather than wait for it (serving must not queue behind training).
    tl_in_parallel_region = true;
    std::exception_ptr err;
    for (int64_t c = 0; c < num_chunks; ++c) {
      try {
        fn(c);
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    tl_in_parallel_region = false;
    if (err) std::rethrow_exception(err);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  EnsureWorkersLocked(NumThreads() - 1, lock);
  job_fn_ = &fn;
  job_chunks_ = num_chunks;
  done_chunks_ = 0;
  error_ = nullptr;
  next_chunk_.store(0, std::memory_order_relaxed);
  ++generation_;
  work_cv_.notify_all();
  lock.unlock();

  WorkChunks(&fn, num_chunks);  // the caller is a full participant

  lock.lock();
  // Wait for every chunk AND for every worker that joined this job to leave
  // it: a worker may hold the fn pointer between reading it and claiming its
  // first (possibly already-taken) chunk, so returning earlier would dangle.
  done_cv_.wait(lock,
                [&] { return done_chunks_ == job_chunks_ && active_ == 0; });
  job_fn_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace internal
}  // namespace rtgcn
