#include "emap/common/thread_pool.hpp"

#include <algorithm>

namespace emap {

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) {
    return;
  }
  const std::size_t threads = workers_.size();
  if (threads <= 1 || count < 2) {
    body(0, count);
    return;
  }
  const std::size_t chunks = std::min(count, threads * 4);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  // This call's own latch: other callers' chunks may share the queue, and
  // waiting for the whole pool to drain would block on them too.  The
  // last chunk notifies while holding mutex_, so the caller cannot wake,
  // return and destroy `done` before notify_all has finished with it.
  std::size_t pending = (count + chunk_size - 1) / chunk_size;
  std::condition_variable done;
  for (std::size_t begin = 0; begin < count; begin += chunk_size) {
    const std::size_t end = std::min(count, begin + chunk_size);
    submit([this, &body, &pending, &done, begin, end] {
      body(begin, end);
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending == 0) {
        done.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done.wait(lock, [&pending] { return pending == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace emap
