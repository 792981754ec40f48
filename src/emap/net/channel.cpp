#include "emap/net/channel.hpp"

#include "emap/common/error.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/obs/profiler.hpp"

namespace emap::net {

Channel::Channel(CommPlatform platform, ChannelOptions options)
    : platform_(platform), options_(options) {}

double Channel::line_seconds(std::size_t payload_bytes, double rate_mbps) {
  require(rate_mbps > 0.0, "Channel::line_seconds: rate must be > 0");
  const double bits = static_cast<double>(payload_bytes) * 8.0;
  return bits / (rate_mbps * 1e6);
}

double Channel::transfer_seconds(std::size_t payload_bytes,
                                 double rate_mbps) const {
  double seconds =
      line_seconds(payload_bytes + kFramingOverheadBytes, rate_mbps);
  if (options_.include_latency) {
    seconds += platform_params(platform_).latency_ms * 1e-3;
  }
  return seconds;
}

double Channel::direction_rate_mbps(Direction direction) const {
  return direction == Direction::kUpload
             ? platform_params(platform_).uplink_mbps
             : platform_params(platform_).downlink_mbps;
}

double Channel::expected_seconds(Direction direction,
                                 std::size_t payload_bytes) const {
  return transfer_seconds(payload_bytes, direction_rate_mbps(direction));
}

void Channel::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    up_metrics_ = DirectionMetrics{};
    down_metrics_ = DirectionMetrics{};
    return;
  }
  auto direction = [registry](const char* name) {
    DirectionMetrics metrics;
    metrics.messages = &registry->counter(
        "emap_net_messages_total", {{"direction", name}},
        "Messages moved over the edge-cloud channel");
    metrics.bytes = &registry->counter(
        "emap_net_bytes_total", {{"direction", name}},
        "Payload plus framing bytes moved over the channel");
    metrics.seconds = &registry->histogram(
        "emap_net_transfer_seconds", {{"direction", name}},
        obs::Histogram::default_latency_bounds(),
        "Modelled transfer time per message");
    return metrics;
  };
  up_metrics_ = direction("up");
  down_metrics_ = direction("down");
}

void Channel::record(DirectionMetrics& metrics, std::size_t payload_bytes,
                     double seconds) const {
  if (metrics.messages == nullptr) {
    return;
  }
  metrics.messages->increment();
  metrics.bytes->increment(payload_bytes + kFramingOverheadBytes);
  metrics.seconds->observe(seconds);
}

double Channel::upload_seconds(std::size_t payload_bytes) {
  const double seconds = transfer_seconds(
      payload_bytes, platform_params(platform_).uplink_mbps);
  record(up_metrics_, payload_bytes, seconds);
  return seconds;
}

double Channel::download_seconds(std::size_t payload_bytes) {
  const double seconds = transfer_seconds(
      payload_bytes, platform_params(platform_).downlink_mbps);
  record(down_metrics_, payload_bytes, seconds);
  return seconds;
}

TransferOutcome Channel::transfer(Direction direction,
                                  std::span<std::uint8_t> bytes) {
  // Work = payload bytes moved through the channel model.
  obs::ProfileScope profile_scope("channel_transfer");
  profile_scope.add_work(bytes.size());
  TransferOutcome outcome;
  outcome.seconds =
      transfer_seconds(bytes.size(), direction_rate_mbps(direction));
  if (injector_ != nullptr) {
    outcome.fault = injector_->apply(direction, bytes);
    outcome.seconds += outcome.fault.extra_delay_sec;
  }
  record(direction == Direction::kUpload ? up_metrics_ : down_metrics_,
         bytes.size(), outcome.seconds);
  return outcome;
}

}  // namespace emap::net
