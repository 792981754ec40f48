// Per-link circuit breaker for cloud calls.
//
// PR 2 gave the edge retries; retries on a *flapping* link are worse than
// nothing — every logical call burns max_attempts timeouts before
// degrading, so the edge pays the full timeout tax again and again.  The
// breaker is the classic three-state fix: CLOSED counts failures over a
// rolling outcome window and trips OPEN when too many accumulate; OPEN
// short-circuits cloud calls instantly (the pipeline keeps tracking its
// stale set at zero extra latency) until a SimTime cooldown expires;
// HALF_OPEN lets probe calls through and closes again only after a
// run of successes.  allow() at any instant at or past the
// cooldown expiry always admits a probe, so the breaker can never stay
// OPEN forever — a property test holds it to that.
//
// Driven by SimTime, so trips and recoveries replay bit-for-bit.
// Thread-safe (mutex) for the cross-thread overload tests.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "emap/obs/metrics.hpp"

namespace emap::robust {

/// Breaker states.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Lowercase state label ("closed", "open", "half_open").
const char* breaker_state_name(BreakerState state);

/// Rolling window of recent call outcomes consulted in CLOSED.
inline constexpr std::size_t kBreakerWindow = 8;
/// Failures within the window that trip the breaker OPEN.
inline constexpr std::size_t kBreakerOpenAfterFailures = 4;
/// SimTime seconds OPEN before the first HALF_OPEN probe is admitted.
inline constexpr double kBreakerCooldownSec = 5.0;
/// Consecutive probe successes in HALF_OPEN required to close.
inline constexpr std::size_t kBreakerHalfOpenSuccesses = 2;

/// Counters embeddable in the RunResult robustness summary.
struct BreakerSummary {
  BreakerState final_state = BreakerState::kClosed;
  std::size_t opens = 0;     ///< transitions into OPEN
  std::size_t rejected = 0;  ///< calls short-circuited while OPEN
  std::size_t failures = 0;
  std::size_t successes = 0;
};

/// Serializable breaker state (checkpoint support): the state machine, the
/// rolling outcome ring, and the cumulative counters, so a restored breaker
/// trips/recovers exactly as the uninterrupted one would.
struct BreakerCheckpoint {
  BreakerState state = BreakerState::kClosed;
  double open_until_sec = 0.0;
  std::uint64_t probe_successes = 0;
  std::vector<std::uint8_t> recent_failure;  ///< ring, 1 = failure
  std::uint64_t recent_next = 0;
  std::uint64_t recent_count = 0;
  BreakerSummary summary{};
};

/// Closed/open/half-open circuit breaker over one edge->cloud link.
class CircuitBreaker {
 public:
  /// `registry` is borrowed and may be null (summary-only operation).
  explicit CircuitBreaker(obs::MetricsRegistry* registry = nullptr);

  /// Whether a call may be issued at SimTime `now_sec`.  In OPEN this is
  /// where the cooldown expiry is checked: at or past it the breaker moves
  /// to HALF_OPEN and admits the probe.
  bool allow(double now_sec);

  /// Records the outcome of an admitted call that completed at `now_sec`.
  void record_success(double now_sec);
  void record_failure(double now_sec);

  BreakerState state() const;
  /// SimTime at which OPEN admits its first probe (0 when not OPEN).
  double open_until_sec() const;

  /// Advertised retry horizon at SimTime `now_sec`: the remaining OPEN
  /// cooldown, 0 when not OPEN.  The edge feeds this into
  /// RetryPolicy::backoff_for as the RetryAfter hint, so retries against a
  /// tripped link wait out the cooldown instead of hammering it.
  double retry_after_hint(double now_sec) const;

  BreakerSummary summary() const;

  /// Captures the restorable state (checkpoint support).
  BreakerCheckpoint checkpoint() const;

  /// Restores a saved state.  Throws InvalidArgument when the saved ring
  /// does not match kBreakerWindow.
  void restore(const BreakerCheckpoint& saved);

 private:
  void trip_locked(double now_sec);
  std::size_t window_failures_locked() const;

  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  double open_until_ = 0.0;
  std::size_t probe_successes_ = 0;
  // Rolling ring of recent outcomes (true = failure) in CLOSED.
  std::vector<bool> recent_failure_;
  std::size_t recent_next_ = 0;
  std::size_t recent_count_ = 0;
  BreakerSummary summary_;

  obs::MetricsRegistry* registry_ = nullptr;
  obs::Gauge* state_metric_ = nullptr;
  obs::Counter* opens_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
};

}  // namespace emap::robust
