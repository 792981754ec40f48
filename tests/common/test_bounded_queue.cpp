// BoundedQueue: capacity invariants, FIFO order, close/drain semantics,
// and no-lost/no-duplicated-item property tests under concurrent produce
// and consume.  The concurrent suites are part of the TSan CI job — they
// are the race detector's view of the streaming stage graph's spine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "emap/common/bounded_queue.hpp"

namespace emap {
namespace {

TEST(BoundedQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BoundedQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(BoundedQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(BoundedQueue<int>(8).capacity(), 8u);
  EXPECT_EQ(BoundedQueue<int>(9).capacity(), 16u);
}

TEST(BoundedQueue, FifoOrderSingleThread) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(queue.push(i));
  }
  for (int i = 0; i < 8; ++i) {
    auto value = queue.try_pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(BoundedQueue, TryPushFailsWhenFullWithoutConsumingTheValue) {
  BoundedQueue<std::vector<int>> queue(2);
  std::vector<int> a{1}, b{2};
  EXPECT_TRUE(queue.try_push(a));
  EXPECT_TRUE(queue.try_push(b));
  std::vector<int> c{3, 4, 5};
  EXPECT_FALSE(queue.try_push(c));
  // A failed push must leave the value intact so the caller can retry.
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(BoundedQueue, CloseDrainsRemainingItemsThenSignalsShutdown) {
  BoundedQueue<int> queue(8);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));
  EXPECT_TRUE(queue.closed());
  auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1);
  auto second = queue.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2);
  EXPECT_FALSE(queue.pop().has_value());  // closed + drained
}

TEST(BoundedQueue, DepthAccountingStaysWithinCapacity) {
  BoundedQueue<int> queue(4);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(queue.push(i));
    }
    EXPECT_EQ(queue.depth(), 4u);
    EXPECT_FALSE(queue.try_push(99));
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(queue.try_pop().has_value());
    }
    EXPECT_EQ(queue.depth(), 0u);
  }
  EXPECT_LE(queue.max_depth(), queue.capacity());
  EXPECT_EQ(queue.pushed(), 12u);
  EXPECT_EQ(queue.popped(), 12u);
}

// SPSC property: with one producer and one consumer, every pushed value
// arrives exactly once and in push order (the stage-graph FIFO contract
// the FIR stream and the window sequence rely on).
TEST(BoundedQueueConcurrency, SpscPreservesOrderLosesNothing) {
  constexpr std::uint64_t kItems = 200000;
  BoundedQueue<std::uint64_t> queue(8);
  std::vector<std::uint64_t> received;
  received.reserve(kItems);

  std::thread consumer([&] {
    while (auto value = queue.pop()) {
      received.push_back(*value);
    }
  });
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      ASSERT_TRUE(queue.push(i));
    }
    queue.close();
  });
  producer.join();
  consumer.join();

  ASSERT_EQ(received.size(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[i], i) << "out of order at " << i;
  }
  EXPECT_LE(queue.max_depth(), queue.capacity());
}

// MPMC property: N producers x M consumers, every value tagged with its
// producer, no item lost or duplicated (the uplink-worker pool case).
TEST(BoundedQueueConcurrency, MpmcLosesNothingDuplicatesNothing) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  BoundedQueue<std::uint64_t> queue(16);

  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (auto value = queue.pop()) {
        received[c].push_back(*value);
      }
    });
  }
  std::vector<std::thread> producers;
  std::atomic<std::size_t> live_producers{kProducers};
  for (std::size_t producer = 0; producer < kProducers; ++producer) {
    producers.emplace_back([&, producer] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(producer * kPerProducer + i));
      }
      if (live_producers.fetch_sub(1) == 1) {
        queue.close();
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  for (auto& t : consumers) {
    t.join();
  }

  std::vector<std::uint64_t> all;
  for (const auto& chunk : received) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(all.size(), kProducers * kPerProducer);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i) << "lost or duplicated item near " << i;
  }
  // Per-producer order is preserved even across competing consumers.
  for (std::size_t c = 0; c < kConsumers; ++c) {
    std::vector<std::uint64_t> last(kProducers, 0);
    std::vector<bool> seen(kProducers, false);
    for (const std::uint64_t value : received[c]) {
      const std::size_t producer = value / kPerProducer;
      if (seen[producer]) {
        EXPECT_GT(value, last[producer]);
      }
      seen[producer] = true;
      last[producer] = value;
    }
  }
  EXPECT_LE(queue.max_depth(), queue.capacity());
}

}  // namespace
}  // namespace emap
