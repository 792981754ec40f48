// Deterministic fault injection for the edge-cloud link.
//
// EMAP's real-time loop runs over an unreliable wireless link, yet the
// Channel alone models only rate + latency + jitter.  FaultInjector is the
// adversary: consulted once per message, it decides — from a seeded stream,
// so every failure is bit-for-bit reproducible — whether that message is
// dropped, corrupted (bit-flips applied in place before decode), duplicated,
// reordered, or delayed, with independent probabilities per direction.
// The pipeline's RetryPolicy (retry.hpp) is the matching recovery side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "emap/common/rng.hpp"

namespace emap::obs {
class MetricsRegistry;
class Counter;
class Histogram;
}  // namespace emap::obs

namespace emap::net {

/// Which way a message is travelling over the link.
enum class Direction { kUpload, kDownload };

/// Human-readable direction label ("up" / "down"), matching the channel's
/// metric labels.
const char* direction_name(Direction direction);

/// Bit-flips applied per corruption event.
inline constexpr std::size_t kCorruptBits = 3;

/// Per-direction fault probabilities and shaping parameters.  All
/// probabilities default to zero: a default-constructed spec injects
/// nothing and the pipeline behaves bit-identically to a fault-free run.
struct FaultSpec {
  double drop = 0.0;       ///< message lost entirely
  double corrupt = 0.0;    ///< bit-flips applied to the encoded bytes
  double duplicate = 0.0;  ///< delivered twice (receiver must dedup)
  double reorder = 0.0;    ///< overtaken in flight (modelled as extra delay)
  double delay = 0.0;      ///< held back by a uniform extra delay
  double delay_min_sec = 0.05;  ///< lower bound of the extra delay
  double delay_max_sec = 0.50;  ///< upper bound of the extra delay

  /// True when any fault can fire.
  bool any() const {
    return drop > 0.0 || corrupt > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           delay > 0.0;
  }
};

/// Full injector configuration: one spec per direction plus the seed that
/// makes the fault sequence reproducible.
struct FaultOptions {
  FaultSpec up;
  FaultSpec down;
  std::uint64_t seed = 0x600dcafeULL;

  bool any() const { return up.any() || down.any(); }
  /// Throws InvalidArgument when a probability or delay range is invalid.
  void validate() const;
};

/// What the injector decided for one message.
struct FaultPlan {
  bool dropped = false;
  bool corrupted = false;
  bool duplicated = false;
  bool reordered = false;
  double extra_delay_sec = 0.0;  ///< from delay and/or reorder faults

  /// Message never reaches (or is unreadable at) the receiver.  A corrupt
  /// plan is still delivered: the receiver's decoder must reject it.
  bool lost() const { return dropped; }
  bool any() const {
    return dropped || corrupted || duplicated || reordered ||
           extra_delay_sec > 0.0;
  }
};

/// Running totals per direction (mirrors the `emap_net_faults_total`
/// counters so tests can assert injected == counted).
struct FaultCounts {
  std::uint64_t messages = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;

  std::uint64_t total_faults() const {
    return dropped + corrupted + duplicated + reordered + delayed;
  }
};

/// Serializable snapshot of an injector's stream position (both direction
/// RNGs plus the running counts).  The crash-recovery checkpoint persists
/// one of these so a resumed run draws the same fault schedule the
/// uninterrupted run would have — corruption consumes a data-dependent
/// number of extra draws, so the raw RNG state (not a draw counter) is the
/// only exact resume point.  The draw cursors ride along as an auditable
/// position label: restore() rewinds both the RNG and the cursor, so a
/// checkpoint can assert how far into the fault schedule it was taken and
/// a resumed injector reports the same cursor the saved one would have.
struct FaultInjectorState {
  RngState up_rng;
  RngState down_rng;
  FaultCounts up_counts;
  FaultCounts down_counts;
  std::uint64_t up_draws = 0;    ///< raw RNG draws consumed upstream
  std::uint64_t down_draws = 0;  ///< raw RNG draws consumed downstream
};

/// Seeded, deterministic per-message fault source.
///
/// Each direction draws from its own forked stream, and every message
/// consumes a fixed number of draws regardless of outcome, so the decision
/// for message N depends only on (seed, direction, N) — replaying a run
/// with the same options reproduces the same fault schedule even when the
/// surrounding code changes how many messages it sends in between.
class FaultInjector {
 public:
  explicit FaultInjector(FaultOptions options = {});

  const FaultOptions& options() const { return options_; }

  /// Decides the fate of one message.  Corruption flips bits of `bytes` in
  /// place (pass an empty span when there is no encoded payload; corrupt
  /// then degrades to a drop, since an unreadable message is a lost one).
  FaultPlan apply(Direction direction, std::span<std::uint8_t> bytes);

  /// Totals per direction since construction.
  const FaultCounts& counts(Direction direction) const;

  /// Raw RNG draws consumed for `direction` so far — the injector's draw
  /// cursor.  Every message consumes the fixed six-draw schedule plus two
  /// extra draws per corruption bit-flip, so the cursor advances by a
  /// data-dependent amount; it identifies the exact stream position a
  /// save()/restore() pair rewinds to.
  std::uint64_t draws(Direction direction) const;

  /// Attaches a telemetry registry (borrowed; nullptr disables):
  /// `emap_net_faults_total{direction,kind}` counters and
  /// `emap_net_fault_delay_seconds{direction}` histograms.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Captures the stream position and counts (checkpoint support).
  FaultInjectorState save() const;

  /// Resumes from a saved state; subsequent apply() calls draw exactly the
  /// schedule the saved injector would have drawn next.
  void restore(const FaultInjectorState& state);

 private:
  struct DirectionState {
    FaultSpec spec;
    Rng rng;
    FaultCounts counts;
    std::uint64_t draws = 0;  ///< raw RNG draws consumed (the cursor)
    struct {
      obs::Counter* dropped = nullptr;
      obs::Counter* corrupted = nullptr;
      obs::Counter* duplicated = nullptr;
      obs::Counter* reordered = nullptr;
      obs::Counter* delayed = nullptr;
      obs::Histogram* delay_seconds = nullptr;
    } metrics;

    DirectionState(const FaultSpec& s, Rng r) : spec(s), rng(r) {}
  };

  DirectionState& state(Direction direction);

  FaultOptions options_;
  DirectionState up_;
  DirectionState down_;
};

}  // namespace emap::net
