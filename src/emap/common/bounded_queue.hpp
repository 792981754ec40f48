// Bounded lock-free queue connecting pipeline stages (streaming mode).
//
// A Vyukov-style bounded ring with per-slot sequence numbers: producers and
// consumers each claim a position with one CAS and publish it through the
// slot's sequence word, so push and pop are lock-free and a single
// producer/consumer pair (the SPSC stage-graph case) never contends at all.
// The same algorithm is safely MPMC, which two streaming features rely on:
// multiple uplink workers popping one job queue, and the shed-oldest policy,
// where the *producer* pops (and discards) the oldest item to make room —
// backpressure that sacrifices the stalest window instead of the newest.
//
// Close semantics: close() is sticky.  Pushes after close fail; pops drain
// the remaining items and then return nullopt, so a stage shutdown cascades
// naturally down the graph (each stage closes its output queue when its
// input queue drains dry).  Producers must finish their last push before
// calling close() for the drain guarantee to hold.
//
// Blocking push()/pop() spin with a yield backoff rather than parking on a
// condition variable: stage queues are short and the stall window is
// microseconds, so a futex round trip would dominate.  The supervisor's
// stall detection is wall-clock driven and does not depend on the queue
// waking anyone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

namespace emap {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2) so the
  /// ring index is a mask; capacity() reports the actual bound.
  explicit BoundedQueue(std::size_t capacity) {
    std::size_t actual = 2;
    while (actual < capacity) {
      actual <<= 1;
    }
    cells_ = std::make_unique<Cell[]>(actual);
    mask_ = actual - 1;
    for (std::size_t i = 0; i < actual; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Non-blocking push; false when the queue is full or closed.  The value
  /// is moved from only on success.
  bool try_push(T& value) {
    if (closed_.load(std::memory_order_acquire)) {
      return false;
    }
    Cell* cell = nullptr;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full: the slot still holds an unconsumed item
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    note_depth();
    return true;
  }

  bool try_push(T&& value) { return try_push(value); }

  /// Blocking push: spins (with yield backoff) until space frees up.
  /// Returns false — value untouched — once the queue is closed.
  bool push(T value) {
    std::size_t spins = 0;
    while (!try_push(value)) {
      if (closed_.load(std::memory_order_acquire)) {
        return false;
      }
      backoff(spins);
    }
    return true;
  }

  /// Push that never blocks on a full queue: it pops and discards the
  /// oldest item(s) until the new one fits (each discard counts in shed()).
  /// Returns false only when the queue is closed.
  bool push_shed_oldest(T value) {
    for (;;) {
      if (try_push(value)) {
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        return false;
      }
      if (try_pop().has_value()) {
        shed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Non-blocking pop; nullopt when the queue is momentarily empty.
  std::optional<T> try_pop() {
    Cell* cell = nullptr;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return std::nullopt;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    std::optional<T> out(std::move(cell->value));
    cell->value = T{};
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return out;
  }

  /// Blocking pop: waits for an item; nullopt once the queue is closed
  /// *and* drained (the shutdown signal for a consumer stage).
  std::optional<T> pop() {
    std::size_t spins = 0;
    for (;;) {
      if (std::optional<T> value = try_pop()) {
        return value;
      }
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check once: an item published just before close() must not
        // be stranded.
        return try_pop();
      }
      backoff(spins);
    }
  }

  /// Sticky: pushes fail from here on, pops drain what remains.
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Instantaneous item count (racy by nature; exact when quiescent).
  std::size_t depth() const {
    // Head before tail: a pop can only raise the tail between the two
    // loads, so the difference never exceeds capacity().  The reverse
    // order over-reports whenever pushes land between the loads.
    const std::size_t head = enqueue_pos_.load(std::memory_order_acquire);
    const std::size_t tail = dequeue_pos_.load(std::memory_order_acquire);
    return head >= tail ? head - tail : 0;
  }

  std::uint64_t pushed() const {
    return enqueue_pos_.load(std::memory_order_relaxed);
  }
  std::uint64_t popped() const {
    return dequeue_pos_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  std::size_t max_depth() const {
    return max_depth_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T value{};
  };

  void note_depth() {
    const std::size_t d = depth();
    std::size_t seen = max_depth_.load(std::memory_order_relaxed);
    while (d > seen && !max_depth_.compare_exchange_weak(
                           seen, d, std::memory_order_relaxed)) {
    }
  }

  static void backoff(std::size_t& spins) {
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::size_t> max_depth_{0};
};

}  // namespace emap
