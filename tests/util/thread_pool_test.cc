#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace shoal::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroElements) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForChunkedPartitionIsExact) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  pool.ParallelForChunked(10, [&](size_t begin, size_t end, size_t worker) {
    (void)worker;
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  std::sort(chunks.begin(), chunks.end());
  size_t expected_begin = 0;
  size_t total = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    total += end - begin;
    expected_begin = end;
  }
  EXPECT_EQ(total, 10u);
}

TEST(ThreadPoolTest, MoreTasksThanThreads) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.ParallelFor(500, [&sum](size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 500L * 499 / 2);
}

TEST(ThreadPoolTest, SequentialWavesReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    pool.ParallelFor(20, [&counter](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, TotalThreadsCreatedCountsSpawns) {
  const uint64_t before = ThreadPool::TotalThreadsCreated();
  {
    ThreadPool pool(3);
    EXPECT_EQ(ThreadPool::TotalThreadsCreated(), before + 3);
  }
  // Destruction joins but never un-counts; the counter is monotone.
  EXPECT_EQ(ThreadPool::TotalThreadsCreated(), before + 3);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 1);
}

// Items of work {1, 1, 10, 1, 1, 1}: at any range count the ranges tile
// [0, 6) in order; at 3 the heavy item closes the first range and the
// light items after it share the last (the middle one stays empty).
TEST(BalancedRangesTest, TileItemsInOrderByWork) {
  const std::vector<uint64_t> work_before{0, 1, 2, 12, 13, 14, 15};
  for (size_t num_ranges : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    const std::vector<size_t> begin = BalancedRanges(work_before, num_ranges);
    ASSERT_EQ(begin.size(), num_ranges + 1);
    EXPECT_EQ(begin.front(), 0u);
    EXPECT_EQ(begin.back(), 6u);
    EXPECT_TRUE(std::is_sorted(begin.begin(), begin.end())) << num_ranges;
  }
  EXPECT_EQ(BalancedRanges(work_before, 3), (std::vector<size_t>{0, 3, 3, 6}));
  EXPECT_EQ(BalancedRanges({0}, 4), (std::vector<size_t>{0, 0, 0, 0, 0}));
}

}  // namespace
}  // namespace shoal::util
