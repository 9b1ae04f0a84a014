#include "futurerand/common/threadpool.h"

#include <algorithm>

#include "futurerand/common/macros.h"

namespace futurerand {

ThreadPool::ThreadPool(int num_threads) {
  FR_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    FR_CHECK_MSG(!shutting_down_, "Submit after shutdown");
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return unfinished_ == 0; });
}

void ThreadPool::ParallelFor(
    int64_t n, const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) {
    return;
  }
  const auto chunks = static_cast<int64_t>(workers_.size());
  const int64_t chunk = (n + chunks - 1) / chunks;
  for (int64_t begin = 0; begin < n; begin += chunk) {
    const int64_t end = std::min(begin + chunk, n);
    Submit([&body, begin, end] { body(begin, end); });
  }
  Wait();
}

int ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Only reachable when shutting down with an empty queue.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --unfinished_;
      if (unfinished_ == 0) {
        all_done_.notify_all();
      }
    }
  }
}

}  // namespace futurerand
