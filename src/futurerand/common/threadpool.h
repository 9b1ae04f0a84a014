// A fixed-size thread pool with a blocking ParallelFor, used by the
// simulation runner to process independent users concurrently.

#ifndef FUTURERAND_COMMON_THREADPOOL_H_
#define FUTURERAND_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace futurerand {

/// Fixed worker pool. Tasks are void() callables; exceptions must not escape
/// tasks (the library does not use exceptions).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  /// Runs `body(begin, end)` over [0, n) split into roughly even contiguous
  /// chunks, one chunk per worker, and blocks until all complete.
  void ParallelFor(int64_t n,
                   const std::function<void(int64_t, int64_t)>& body);

  /// Number of hardware threads, at least 1.
  static int DefaultThreadCount();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int64_t unfinished_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace futurerand

#endif  // FUTURERAND_COMMON_THREADPOOL_H_
