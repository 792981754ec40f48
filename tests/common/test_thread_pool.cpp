#include "emap/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>
#include <vector>

namespace emap {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue and joins the workers
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(touched.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1);
    }
  });
  for (const auto& t : touched) {
    EXPECT_EQ(t.load(), 1);
  }
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(1, [&](std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(8);
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 1);
  std::atomic<long long> parallel_sum{0};
  pool.parallel_for(data.size(), [&](std::size_t begin, std::size_t end) {
    long long local = 0;
    for (std::size_t i = begin; i < end; ++i) {
      local += data[i];
    }
    parallel_sum.fetch_add(local);
  });
  const long long serial = std::accumulate(data.begin(), data.end(), 0LL);
  EXPECT_EQ(parallel_sum.load(), serial);
}

// Two callers share the pool: one parallel_for is held up by a slow chunk,
// the other's chunks are quick.  The quick call returns while the slow one
// is still running, instead of waiting for the whole pool to drain.
TEST(ThreadPool, ConcurrentParallelForWaitsOnlyForItsOwnChunks) {
  ThreadPool pool(4);
  std::promise<void> slow_started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::thread slow_caller([&] {
    pool.parallel_for(2, [&](std::size_t begin, std::size_t) {
      if (begin == 0) {
        slow_started.set_value();
        gate.wait();
      }
    });
  });
  std::future<void> started = slow_started.get_future();
  ASSERT_EQ(started.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  std::atomic<int> fast_chunks{0};
  std::promise<void> fast_returned;
  std::thread fast_caller([&] {
    pool.parallel_for(2, [&](std::size_t, std::size_t) {
      fast_chunks.fetch_add(1);
    });
    fast_returned.set_value();
  });
  const auto status =
      fast_returned.get_future().wait_for(std::chrono::seconds(5));
  release.set_value();  // let the slow chunk finish either way
  fast_caller.join();
  slow_caller.join();
  EXPECT_EQ(status, std::future_status::ready)
      << "the quick parallel_for waited for the other caller's slow chunk";
  EXPECT_EQ(fast_chunks.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace emap
