// Minimal fixed-size thread pool used by the cloud-side parallel MDB scan.
//
// The paper slices the mega-database "to enable the search algorithm to
// quickly search through the complete database in parallel" (Section V-B);
// ThreadPool provides the parallel-for primitive the search shards map onto.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace emap {

/// Fixed-size worker pool with a parallel_for convenience wrapper.
///
/// Tasks must not throw; exceptions escaping a task terminate the process by
/// design (a crashed search shard has no meaningful partial result).  Tasks
/// that can fail should capture their error state and report it to the
/// caller through their own channel.
class ThreadPool {
 public:
  /// Creates `thread_count` workers; 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t thread_count = 0);

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Splits [0, count) into contiguous chunks, runs
  /// `body(begin, end)` for each chunk on the pool, and blocks until this
  /// call's chunks complete (not other callers' tasks, so concurrent
  /// callers do not wait on each other).  Runs inline when count is small
  /// or the pool has a single worker.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
};

}  // namespace emap
