#include "emap/net/channel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/obs/metrics.hpp"

namespace emap::net {
namespace {

TEST(Channel, LineSecondsIsBitsOverRate) {
  // 1250 bytes = 10000 bits at 10 Mbps -> 1 ms.
  EXPECT_NEAR(Channel::line_seconds(1250, 10.0), 1e-3, 1e-12);
}

TEST(Channel, LineSecondsRejectsZeroRate) {
  EXPECT_THROW(Channel::line_seconds(100, 0.0), InvalidArgument);
}

TEST(Channel, UploadIncludesLatencyByDefault) {
  Channel channel(CommPlatform::kLte);
  const double latency =
      platform_params(CommPlatform::kLte).latency_ms * 1e-3;
  EXPECT_GT(channel.upload_seconds(100), latency);
}

TEST(Channel, SerializationOnlyModeExcludesLatency) {
  ChannelOptions options;
  options.include_latency = false;
  Channel channel(CommPlatform::kLte, options);
  const double expected = Channel::line_seconds(
      512 + kFramingOverheadBytes,
      platform_params(CommPlatform::kLte).uplink_mbps);
  EXPECT_NEAR(channel.upload_seconds(512), expected, 1e-12);
}

TEST(Channel, PaperUploadConstraintHolds) {
  // 256 samples (512 bytes + framing) must go up in < 1 ms on 4G-era
  // links (paper Fig. 4a).
  ChannelOptions options;
  options.include_latency = false;
  for (CommPlatform platform :
       {CommPlatform::kLte, CommPlatform::kLteAdvanced,
        CommPlatform::kWimaxR2}) {
    Channel channel(platform, options);
    EXPECT_LT(channel.upload_seconds(512 + 16), 1e-3)
        << platform_name(platform);
  }
}

TEST(Channel, PaperDownloadConstraintHolds) {
  // 100 signal-sets (~100 x 2 kB) must come down in < 200 ms on 4G-era
  // links (paper Fig. 4b).
  ChannelOptions options;
  options.include_latency = false;
  const std::size_t payload = 100 * (1000 * 2 + 18);
  for (CommPlatform platform :
       {CommPlatform::kLte, CommPlatform::kLteAdvanced,
        CommPlatform::kWimaxR2}) {
    Channel channel(platform, options);
    EXPECT_LT(channel.download_seconds(payload), 0.2)
        << platform_name(platform);
  }
}

TEST(Channel, DownloadFasterThanUploadForSamePayload) {
  ChannelOptions options;
  options.include_latency = false;
  for (CommPlatform platform : kAllPlatforms) {
    Channel channel(platform, options);
    EXPECT_LT(channel.download_seconds(10000),
              channel.upload_seconds(10000));
  }
}

TEST(Channel, TransferTimeMonotoneInPayload) {
  Channel channel(CommPlatform::kHspa);
  EXPECT_LT(channel.upload_seconds(100), channel.upload_seconds(10000));
}

TEST(Channel, ExpectedSecondsMatchesJitterFreeTransfer) {
  // The link has no jitter: a fault-free transfer takes exactly the
  // expected time, whichever way it is asked for.
  Channel channel(CommPlatform::kLte);
  std::vector<std::uint8_t> bytes(1000);
  const auto outcome = channel.transfer(Direction::kUpload, bytes);
  EXPECT_TRUE(outcome.delivered());
  EXPECT_EQ(outcome.seconds,
            channel.expected_seconds(Direction::kUpload, bytes.size()));
  EXPECT_EQ(channel.upload_seconds(bytes.size()), outcome.seconds);
  EXPECT_EQ(channel.download_seconds(5000),
            channel.expected_seconds(Direction::kDownload, 5000));
  // expected_seconds is const: asking twice gives the same answer.
  EXPECT_DOUBLE_EQ(channel.expected_seconds(Direction::kDownload, 5000),
                   channel.expected_seconds(Direction::kDownload, 5000));
}

TEST(Channel, TransferWithoutInjectorIsFaultFree) {
  Channel channel(CommPlatform::kHspa);
  std::vector<std::uint8_t> bytes(64, 0xab);
  const auto original = bytes;
  for (int i = 0; i < 50; ++i) {
    const auto outcome = channel.transfer(Direction::kDownload, bytes);
    EXPECT_TRUE(outcome.delivered());
    EXPECT_FALSE(outcome.fault.any());
  }
  EXPECT_EQ(bytes, original);
}

TEST(Channel, TransferConsultsAttachedInjector) {
  FaultOptions fault;
  fault.up.drop = 1.0;
  FaultInjector injector(fault);
  Channel channel(CommPlatform::kLte);
  channel.set_fault_injector(&injector);
  std::vector<std::uint8_t> bytes(32);
  const auto outcome = channel.transfer(Direction::kUpload, bytes);
  EXPECT_FALSE(outcome.delivered());
  EXPECT_TRUE(outcome.fault.dropped);
  EXPECT_EQ(injector.counts(Direction::kUpload).dropped, 1u);

  channel.set_fault_injector(nullptr);
  EXPECT_TRUE(channel.transfer(Direction::kUpload, bytes).delivered());
  EXPECT_EQ(injector.counts(Direction::kUpload).messages, 1u);
}

TEST(Channel, InjectedDelayExtendsTransferTime) {
  FaultOptions fault;
  fault.down.delay = 1.0;
  fault.down.delay_min_sec = 1.0;
  fault.down.delay_max_sec = 2.0;
  FaultInjector injector(fault);
  Channel channel(CommPlatform::kLte);
  channel.set_fault_injector(&injector);
  std::vector<std::uint8_t> bytes(100);
  const double baseline =
      channel.expected_seconds(Direction::kDownload, bytes.size());
  const auto outcome = channel.transfer(Direction::kDownload, bytes);
  EXPECT_GE(outcome.seconds, baseline + 1.0);
  EXPECT_LE(outcome.seconds, baseline + 2.0 + 1e-12);
  EXPECT_NEAR(outcome.seconds, baseline + outcome.fault.extra_delay_sec,
              1e-12);
}

TEST(Channel, InjectedFaultsAllLandInMetrics) {
  // Every fault the injector reports through the channel must be visible
  // in the exported counters: injected == counted.
  FaultOptions fault;
  fault.up.drop = 0.3;
  fault.up.corrupt = 0.3;
  fault.down.drop = 0.2;
  fault.down.delay = 0.4;
  fault.seed = 77;
  FaultInjector injector(fault);
  obs::MetricsRegistry registry;
  injector.set_metrics(&registry);
  Channel channel(CommPlatform::kLte);
  channel.set_metrics(&registry);
  channel.set_fault_injector(&injector);

  std::uint64_t observed_up_faults = 0;
  std::uint64_t observed_down_faults = 0;
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> up(64, 0x5a);
    std::vector<std::uint8_t> down(256, 0xa5);
    const auto up_outcome = channel.transfer(Direction::kUpload, up);
    const auto down_outcome = channel.transfer(Direction::kDownload, down);
    observed_up_faults += up_outcome.fault.any() ? 1 : 0;
    observed_down_faults += down_outcome.fault.any() ? 1 : 0;
  }
  ASSERT_GT(observed_up_faults, 0u);
  ASSERT_GT(observed_down_faults, 0u);

  for (Direction direction : {Direction::kUpload, Direction::kDownload}) {
    const FaultCounts& counts = injector.counts(direction);
    const char* dir = direction_name(direction);
    const std::uint64_t counted =
        registry
            .counter("emap_net_faults_total",
                     {{"direction", dir}, {"kind", "drop"}})
            .value() +
        registry
            .counter("emap_net_faults_total",
                     {{"direction", dir}, {"kind", "corrupt"}})
            .value() +
        registry
            .counter("emap_net_faults_total",
                     {{"direction", dir}, {"kind", "duplicate"}})
            .value() +
        registry
            .counter("emap_net_faults_total",
                     {{"direction", dir}, {"kind", "reorder"}})
            .value() +
        registry
            .counter("emap_net_faults_total",
                     {{"direction", dir}, {"kind", "delay"}})
            .value();
    EXPECT_EQ(counted, counts.total_faults());
    // Dropped messages still occupied the link, so the channel's message
    // counter covers every send.
    EXPECT_EQ(registry
                  .counter("emap_net_messages_total", {{"direction", dir}})
                  .value(),
              counts.messages);
  }
}

}  // namespace
}  // namespace emap::net
