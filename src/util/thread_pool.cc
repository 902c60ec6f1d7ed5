#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace shoal::util {

namespace {
std::atomic<uint64_t> g_total_threads_created{0};
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  g_total_threads_created.fetch_add(num_threads, std::memory_order_relaxed);
}

uint64_t ThreadPool::TotalThreadsCreated() {
  return g_total_threads_created.load(std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  }
  task_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  ParallelForChunked(n, [&fn](size_t begin, size_t end, size_t /*worker*/) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForChunked(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t chunks = std::min(n, workers_.size());
  if (chunks == 1) {
    // A single chunk gains nothing from a worker handoff, and the
    // wake/wait round trip dominates on small frontiers; run it inline
    // on the calling thread. Stats account for it like any other task.
    const auto start = std::chrono::steady_clock::now();
    fn(0, n, 0);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    std::unique_lock<std::mutex> lock(mu_);
    ++tasks_executed_;
    total_task_seconds_ += seconds;
    max_task_seconds_ = std::max(max_task_seconds_, seconds);
    return;
  }
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    const size_t end = begin + len;
    Submit([&fn, begin, end, c] { fn(begin, end, c); });
    begin = end;
  }
  Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    task();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++tasks_executed_;
      total_task_seconds_ += seconds;
      max_task_seconds_ = std::max(max_task_seconds_, seconds);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPoolStats ThreadPool::GetStats() const {
  std::unique_lock<std::mutex> lock(mu_);
  ThreadPoolStats stats;
  stats.tasks_executed = tasks_executed_;
  stats.queue_depth = queue_.size();
  stats.peak_queue_depth = peak_queue_depth_;
  stats.total_task_seconds = total_task_seconds_;
  stats.max_task_seconds = max_task_seconds_;
  return stats;
}

std::vector<size_t> BalancedRanges(const std::vector<uint64_t>& work_before,
                                   size_t num_ranges) {
  const size_t n = work_before.size() - 1;
  std::vector<size_t> begin(num_ranges + 1, n);
  for (size_t r = 0; r < num_ranges; ++r) {
    const uint64_t target = work_before[n] * r / num_ranges;
    begin[r] = static_cast<size_t>(
        std::lower_bound(work_before.begin(), work_before.end() - 1, target) -
        work_before.begin());
  }
  return begin;
}

}  // namespace shoal::util
