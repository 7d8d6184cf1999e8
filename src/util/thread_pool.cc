#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace hosr::util {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HOSR_CHECK(!shutting_down_) << "Submit after shutdown";
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

namespace {
// Nested ParallelFor calls (e.g. GEMM invoked from inside a parallel body)
// run inline: a worker blocking in Wait() for tasks behind it in the queue
// would deadlock the pool.
thread_local bool t_inside_parallel_for = false;
}  // namespace

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body,
                 size_t min_chunk) {
  if (end <= begin) return;
  const size_t count = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  const size_t max_chunks = pool.num_threads() * 4;
  if (t_inside_parallel_for || count <= min_chunk ||
      pool.num_threads() <= 1 || max_chunks <= 1) {
    body(begin, end);
    return;
  }
  const size_t num_chunks =
      std::min(max_chunks, (count + min_chunk - 1) / min_chunk);
  const size_t chunk_size = (count + num_chunks - 1) / num_chunks;
  // The caller and one pool task per other core claim the chunks off a
  // shared cursor: a call costs a wake-up per helper, not a task per chunk,
  // and the chunk boundaries do not depend on who runs them.
  std::atomic<size_t> next_chunk{0};
  const auto run_chunks = [&] {
    t_inside_parallel_for = true;
    for (size_t c; (c = next_chunk.fetch_add(1)) * chunk_size < count;) {
      const size_t chunk_begin = begin + c * chunk_size;
      body(chunk_begin, std::min(end, chunk_begin + chunk_size));
    }
    t_inside_parallel_for = false;
  };
  const size_t helpers = std::min(pool.num_threads(), num_chunks) - 1;
  for (size_t h = 0; h < helpers; ++h) pool.Submit(run_chunks);
  run_chunks();
  pool.Wait();
}

size_t GrainFor(size_t work_per_item, size_t min_grain) {
  const size_t work = std::max<size_t>(1, work_per_item);
  const size_t lo = std::max<size_t>(1, min_grain);
  const size_t hi = std::max(lo, kGrainTargetWork);
  return std::clamp(kGrainTargetWork / work, lo, hi);
}

}  // namespace hosr::util
