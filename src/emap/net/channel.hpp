// Edge-cloud channel model.
//
// Converts message sizes into transfer times for a given platform.  The
// Fig. 4 serialization analysis uses pure line-rate time; the end-to-end
// pipeline (Eq. 4's Δ_EC and Δ_CE) additionally includes the access
// latency.
//
// An optional FaultInjector (fault.hpp) can be attached; the transfer()
// path then consults it once per message, so drops, in-place corruption,
// duplication, reordering, and extra delay ride the same calibrated link
// model the fault-free path uses.
#pragma once

#include <cstddef>
#include <span>

#include "emap/net/fault.hpp"
#include "emap/net/platform.hpp"
#include "emap/net/retry.hpp"

namespace emap::obs {
class MetricsRegistry;
class Counter;
class Histogram;
}  // namespace emap::obs

namespace emap::net {

/// L2/L3/L4 header bytes the link adds to every message.
inline constexpr std::size_t kFramingOverheadBytes = 60;

/// Channel behaviour switches.
struct ChannelOptions {
  bool include_latency = true;  ///< add one-way access latency per message
};

/// One message's trip over the link: the modelled wire time plus whatever
/// the attached fault injector decided (nothing, when none is attached).
struct TransferOutcome {
  double seconds = 0.0;  ///< wire time including any injected extra delay
  FaultPlan fault;       ///< what the injector did to this message

  /// The receiver gets a (possibly corrupted) copy of the message.
  bool delivered() const { return !fault.dropped; }

  /// Typed reject reason for the retry layer: a dropped message is pure
  /// silence (the sender can only time out), a corrupted one is
  /// CRC-detectable at decode and can fail fast.  What the *edge*
  /// ultimately observes depends on the leg — an upload corrupted in
  /// flight is still silence from the edge's side, because the receiver
  /// that detects it is the cloud.
  RejectReason reject_reason() const {
    if (fault.dropped) {
      return RejectReason::kTimeout;
    }
    if (fault.corrupted) {
      return RejectReason::kCorrupt;
    }
    return RejectReason::kNone;
  }
};

/// A point-to-point edge<->cloud link over one platform.
class Channel {
 public:
  explicit Channel(CommPlatform platform, ChannelOptions options = {});

  CommPlatform platform() const { return platform_; }
  const ChannelOptions& options() const { return options_; }

  /// Seconds to move `payload_bytes` up (edge -> cloud).
  double upload_seconds(std::size_t payload_bytes);

  /// Seconds to move `payload_bytes` down (cloud -> edge).
  double download_seconds(std::size_t payload_bytes);

  /// Moves one encoded message across the link, consulting the attached
  /// fault injector (corruption mutates `bytes` in place).  The time and
  /// byte metrics are recorded whether or not the message survives — a
  /// dropped message still occupied the link.
  TransferOutcome transfer(Direction direction,
                           std::span<std::uint8_t> bytes);

  /// Expected (fault-free) transfer time for a payload — what the
  /// RetryPolicy derives its timeout from.  Records no metrics.
  double expected_seconds(Direction direction,
                          std::size_t payload_bytes) const;

  /// Pure serialization time (no latency, no framing) — the
  /// quantity Fig. 4 plots.
  static double line_seconds(std::size_t payload_bytes, double rate_mbps);

  /// Attaches a telemetry registry (borrowed; nullptr disables): per
  /// direction message/byte counters and transfer-time histograms under
  /// `emap_net_*`.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a fault injector (borrowed; nullptr restores the perfect
  /// link).  Only the transfer() path consults it.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

 private:
  double transfer_seconds(std::size_t payload_bytes, double rate_mbps) const;
  double direction_rate_mbps(Direction direction) const;

  struct DirectionMetrics {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* seconds = nullptr;
  };
  void record(DirectionMetrics& metrics, std::size_t payload_bytes,
              double seconds) const;

  CommPlatform platform_;
  ChannelOptions options_;
  FaultInjector* injector_ = nullptr;
  DirectionMetrics up_metrics_{};
  DirectionMetrics down_metrics_{};
};

}  // namespace emap::net
