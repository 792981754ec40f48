#include "emap/net/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/obs/metrics.hpp"

namespace emap::net {
namespace {

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return bytes;
}

TEST(FaultInjector, DefaultOptionsInjectNothing) {
  FaultInjector injector;
  auto bytes = payload(64);
  const auto original = bytes;
  for (int i = 0; i < 200; ++i) {
    const FaultPlan plan = injector.apply(Direction::kUpload, bytes);
    EXPECT_FALSE(plan.any());
  }
  EXPECT_EQ(bytes, original);
  EXPECT_EQ(injector.counts(Direction::kUpload).total_faults(), 0u);
  EXPECT_EQ(injector.counts(Direction::kUpload).messages, 200u);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultOptions options;
  options.up.drop = 0.2;
  options.up.corrupt = 0.2;
  options.up.duplicate = 0.1;
  options.up.delay = 0.3;
  options.down = options.up;
  options.seed = 1234;

  FaultInjector a(options);
  FaultInjector b(options);
  for (int i = 0; i < 500; ++i) {
    auto bytes_a = payload(32);
    auto bytes_b = payload(32);
    const Direction direction =
        (i % 2 == 0) ? Direction::kUpload : Direction::kDownload;
    const FaultPlan pa = a.apply(direction, bytes_a);
    const FaultPlan pb = b.apply(direction, bytes_b);
    EXPECT_EQ(pa.dropped, pb.dropped);
    EXPECT_EQ(pa.corrupted, pb.corrupted);
    EXPECT_EQ(pa.duplicated, pb.duplicated);
    EXPECT_EQ(pa.reordered, pb.reordered);
    EXPECT_DOUBLE_EQ(pa.extra_delay_sec, pb.extra_delay_sec);
    EXPECT_EQ(bytes_a, bytes_b);
  }
}

TEST(FaultInjector, DrawCursorRewindsWithState) {
  // The draw cursor labels the RNG stream position: 6 draws per message on
  // the fixed schedule, plus 2 per corruption bit flip.  restore() must
  // rewind cursor and RNG together so the replayed schedule — and the
  // cursor audit trail — match the original run exactly.
  FaultOptions options;
  options.up.drop = 0.2;
  options.up.corrupt = 0.3;
  options.down.delay = 0.4;
  options.seed = 99;
  FaultInjector injector(options);
  EXPECT_EQ(injector.draws(Direction::kUpload), 0u);
  EXPECT_EQ(injector.draws(Direction::kDownload), 0u);

  for (int i = 0; i < 10; ++i) {
    auto bytes = payload(16);
    injector.apply(Direction::kUpload, bytes);
    injector.apply(Direction::kDownload, bytes);
  }
  // Every message consumes the fixed six-draw schedule; corrupted uploads
  // consume two more per flipped bit on top.
  EXPECT_GE(injector.draws(Direction::kUpload), 60u);
  EXPECT_EQ(injector.draws(Direction::kDownload), 60u);

  const FaultInjectorState snapshot = injector.save();
  std::vector<FaultPlan> first_pass;
  std::vector<std::vector<std::uint8_t>> first_payloads;
  for (int i = 0; i < 20; ++i) {
    auto bytes = payload(16);
    first_pass.push_back(injector.apply(Direction::kUpload, bytes));
    first_payloads.push_back(bytes);
  }
  const std::uint64_t cursor_after = injector.draws(Direction::kUpload);

  injector.restore(snapshot);
  EXPECT_EQ(injector.draws(Direction::kUpload), snapshot.up_draws);
  EXPECT_EQ(injector.draws(Direction::kDownload), snapshot.down_draws);
  for (int i = 0; i < 20; ++i) {
    auto bytes = payload(16);
    const FaultPlan replayed = injector.apply(Direction::kUpload, bytes);
    EXPECT_EQ(replayed.dropped, first_pass[static_cast<std::size_t>(i)].dropped);
    EXPECT_EQ(replayed.corrupted,
              first_pass[static_cast<std::size_t>(i)].corrupted);
    EXPECT_EQ(replayed.duplicated,
              first_pass[static_cast<std::size_t>(i)].duplicated);
    EXPECT_DOUBLE_EQ(replayed.extra_delay_sec,
                     first_pass[static_cast<std::size_t>(i)].extra_delay_sec);
    EXPECT_EQ(bytes, first_payloads[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(injector.draws(Direction::kUpload), cursor_after);
}

TEST(FaultInjector, DirectionsAreIndependentStreams) {
  // The schedule for message N of one direction must not change when the
  // other direction carries more or fewer messages in between.
  FaultOptions options;
  options.up.drop = 0.3;
  options.down.drop = 0.3;

  FaultInjector interleaved(options);
  FaultInjector upload_only(options);
  std::vector<std::uint8_t> empty;
  std::vector<bool> interleaved_drops;
  std::vector<bool> solo_drops;
  for (int i = 0; i < 100; ++i) {
    interleaved_drops.push_back(
        interleaved.apply(Direction::kUpload, empty).dropped);
    interleaved.apply(Direction::kDownload, empty);  // extra traffic
    solo_drops.push_back(
        upload_only.apply(Direction::kUpload, empty).dropped);
  }
  EXPECT_EQ(interleaved_drops, solo_drops);
}

TEST(FaultInjector, CorruptFlipsBitsInPlace) {
  FaultOptions options;
  options.up.corrupt = 1.0;
  FaultInjector injector(options);
  auto bytes = payload(128);
  const auto original = bytes;
  const FaultPlan plan = injector.apply(Direction::kUpload, bytes);
  EXPECT_TRUE(plan.corrupted);
  EXPECT_FALSE(plan.dropped);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::uint8_t diff = static_cast<std::uint8_t>(bytes[i] ^ original[i]);
    while (diff != 0) {
      flipped += diff & 1u;
      diff = static_cast<std::uint8_t>(diff >> 1);
    }
  }
  EXPECT_GE(flipped, 1u);
  EXPECT_LE(flipped, kCorruptBits);
}

TEST(FaultInjector, CorruptWithoutPayloadDegradesToDrop) {
  FaultOptions options;
  options.down.corrupt = 1.0;
  FaultInjector injector(options);
  const FaultPlan plan = injector.apply(Direction::kDownload, {});
  EXPECT_TRUE(plan.dropped);
  EXPECT_TRUE(plan.lost());
}

TEST(FaultInjector, DropSuppressesOtherFaults) {
  FaultOptions options;
  options.up.drop = 1.0;
  options.up.corrupt = 1.0;
  options.up.duplicate = 1.0;
  options.up.delay = 1.0;
  FaultInjector injector(options);
  auto bytes = payload(16);
  const auto original = bytes;
  const FaultPlan plan = injector.apply(Direction::kUpload, bytes);
  EXPECT_TRUE(plan.dropped);
  EXPECT_FALSE(plan.corrupted);
  EXPECT_FALSE(plan.duplicated);
  EXPECT_DOUBLE_EQ(plan.extra_delay_sec, 0.0);
  EXPECT_EQ(bytes, original);
}

TEST(FaultInjector, DelayStaysWithinConfiguredRange) {
  FaultOptions options;
  options.down.delay = 1.0;
  options.down.delay_min_sec = 0.1;
  options.down.delay_max_sec = 0.2;
  FaultInjector injector(options);
  for (int i = 0; i < 200; ++i) {
    const FaultPlan plan = injector.apply(Direction::kDownload, {});
    EXPECT_TRUE(plan.any());
    EXPECT_GE(plan.extra_delay_sec, 0.1);
    EXPECT_LE(plan.extra_delay_sec, 0.2);
  }
  EXPECT_EQ(injector.counts(Direction::kDownload).delayed, 200u);
}

TEST(FaultInjector, CountsMatchObservedPlans) {
  FaultOptions options;
  options.up.drop = 0.15;
  options.up.corrupt = 0.15;
  options.up.duplicate = 0.15;
  options.up.reorder = 0.10;
  options.up.delay = 0.15;
  options.seed = 99;
  FaultInjector injector(options);
  FaultCounts expected;
  for (int i = 0; i < 1000; ++i) {
    auto bytes = payload(8);
    const FaultPlan plan = injector.apply(Direction::kUpload, bytes);
    ++expected.messages;
    expected.dropped += plan.dropped ? 1 : 0;
    expected.corrupted += plan.corrupted ? 1 : 0;
    expected.duplicated += plan.duplicated ? 1 : 0;
    expected.reordered += plan.reordered ? 1 : 0;
    expected.delayed += plan.extra_delay_sec > 0.0 ? 1 : 0;
  }
  const FaultCounts& counts = injector.counts(Direction::kUpload);
  EXPECT_EQ(counts.messages, expected.messages);
  EXPECT_EQ(counts.dropped, expected.dropped);
  EXPECT_EQ(counts.corrupted, expected.corrupted);
  EXPECT_EQ(counts.duplicated, expected.duplicated);
  EXPECT_EQ(counts.reordered, expected.reordered);
  EXPECT_EQ(counts.delayed, expected.delayed);
  EXPECT_GT(counts.total_faults(), 0u);
}

TEST(FaultInjector, MetricsMirrorCounts) {
  FaultOptions options;
  options.up.drop = 0.3;
  options.down.corrupt = 0.3;
  options.down.delay = 0.3;
  FaultInjector injector(options);
  obs::MetricsRegistry registry;
  injector.set_metrics(&registry);
  for (int i = 0; i < 300; ++i) {
    auto up = payload(16);
    auto down = payload(16);
    injector.apply(Direction::kUpload, up);
    injector.apply(Direction::kDownload, down);
  }
  const auto up_counts = injector.counts(Direction::kUpload);
  const auto down_counts = injector.counts(Direction::kDownload);
  EXPECT_EQ(registry
                .counter("emap_net_faults_total",
                         {{"direction", "up"}, {"kind", "drop"}})
                .value(),
            up_counts.dropped);
  EXPECT_EQ(registry
                .counter("emap_net_faults_total",
                         {{"direction", "down"}, {"kind", "corrupt"}})
                .value(),
            down_counts.corrupted);
  EXPECT_EQ(registry
                .counter("emap_net_faults_total",
                         {{"direction", "down"}, {"kind", "delay"}})
                .value(),
            down_counts.delayed);
}

TEST(FaultOptions, ValidateRejectsBadProbabilities) {
  FaultOptions options;
  options.up.drop = 1.5;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = FaultOptions{};
  options.down.corrupt = -0.1;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = FaultOptions{};
  options.up.delay_min_sec = 0.5;
  options.up.delay_max_sec = 0.1;
  EXPECT_THROW(options.validate(), InvalidArgument);
}

}  // namespace
}  // namespace emap::net
