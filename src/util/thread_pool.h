#ifndef HOSR_UTIL_THREAD_POOL_H_
#define HOSR_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hosr::util {

// Fixed-size worker pool with a simple FIFO queue. Destruction drains the
// queue, then joins workers.
class ThreadPool {
 public:
  // num_threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task for execution on a worker thread.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  // Process-wide shared pool, sized to the hardware.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

// Splits [begin, end) into contiguous chunks and runs
// `body(chunk_begin, chunk_end)` across the pool and the calling thread,
// blocking until all chunks finish. Runs inline when the range is small or
// the pool has one thread.
// `body` must be safe to invoke concurrently on disjoint ranges.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body,
                 size_t min_chunk = 1024);

// Roughly how much work one ParallelFor chunk should carry before the
// pool's dispatch overhead is amortized, in scalar-op units.
inline constexpr size_t kGrainTargetWork = 16 * 1024;

// The one grain-sizing heuristic for ParallelFor `min_chunk` arguments:
// items per chunk so each chunk carries about kGrainTargetWork ops, where
// `work_per_item` is the per-item cost in scalar-op units (e.g. nnz * d for
// an SpMM row). Clamped to [min_grain, max(min_grain, kGrainTargetWork)];
// zero work_per_item is treated as 1.
size_t GrainFor(size_t work_per_item, size_t min_grain = 1);

// ParallelFor over single indices: fn(i) for every i in [begin, end), at
// least `min_chunk` indices per chunk. For element-wise passes, where every
// index is independent, so no split can change a result.
template <typename Fn>
void ParallelForEach(size_t begin, size_t end, const Fn& fn,
                     size_t min_chunk = kGrainTargetWork) {
  ParallelFor(
      begin, end,
      [&fn](size_t chunk_begin, size_t chunk_end) {
        for (size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
      },
      min_chunk);
}

}  // namespace hosr::util

#endif  // HOSR_UTIL_THREAD_POOL_H_
