// Edge-side retry policy for cloud calls over a lossy link.
//
// The recovery half of the fault model (fault.hpp): when a cloud round
// trip times out — upload lost, response lost, or either copy corrupted —
// the edge retries with capped exponential backoff and deterministic
// jitter, up to a max attempt count and a hard per-call deadline.  The
// timeout is derived from the channel's expected transfer time rather than
// hard-coded, so the same policy is sane on HSPA and on LTE-Advanced.
//
// Everything here is a pure function of (options, attempt index):
// replaying a run reproduces the identical retry schedule, which is what
// lets the fault-matrix harness assert exact outcomes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace emap::net {

/// Why a cloud-call attempt failed, as seen from the edge.  The retry
/// schedule differentiates: silence (loss) earns the full exponential
/// backoff, a CRC-detected corrupt delivery retries after a flat base
/// backoff (the link works, the payload was garbled).
enum class RejectReason : std::uint8_t {
  kNone = 0,  ///< the attempt succeeded
  kTimeout,   ///< silence: message lost (or unreadable at the receiver)
  kCorrupt,   ///< garbage detected at decode on the edge (fails fast)
};

/// Lowercase reason label ("none", "timeout", "corrupt").
const char* reject_reason_name(RejectReason reason);

/// The fixed shape of the retry schedule.  Together with RetryOptions'
/// defaults it keeps the worst-case stall of one logical cloud call within
/// the paper's ~3 s initial-latency budget order of magnitude.
inline constexpr double kTimeoutMultiplier = 4.0;  ///< x expected transfer
inline constexpr double kMinTimeoutSec = 0.25;  ///< covers the search leg
inline constexpr double kMaxTimeoutSec = 5.0;   ///< ceiling per attempt
inline constexpr double kBaseBackoffSec = 0.10;  ///< backoff before attempt 1
inline constexpr double kBackoffCapSec = 2.00;  ///< exponential growth stops
inline constexpr double kJitterFraction = 0.10;  ///< jitter factor in [1, 1.1)
inline constexpr std::uint64_t kJitterSeed = 0x5eedULL;  ///< jitter stream

/// The retry budget of one logical call.
struct RetryOptions {
  std::size_t max_attempts = 3;  ///< total tries per logical call (>= 1)
  double deadline_sec = 20.0;    ///< hard cap on cumulative wait per call

  /// Throws InvalidArgument on zero attempts or a deadline shorter than
  /// one attempt's maximum timeout (kMaxTimeoutSec).
  void validate() const;
};

/// Deterministic timeout/backoff schedule.
class RetryPolicy {
 public:
  explicit RetryPolicy(RetryOptions options = {});

  /// Per-attempt timeout for a call whose fault-free transfer is expected
  /// to take `expected_transfer_sec`:
  /// clamp(kTimeoutMultiplier x expected, kMinTimeoutSec, kMaxTimeoutSec).
  double timeout_for(double expected_transfer_sec) const;

  /// Backoff observed before `attempt` (0-based).  Attempt 0 starts
  /// immediately; attempt k >= 1 waits
  /// min(kBackoffCapSec, kBaseBackoffSec x 2^(k-1)) stretched by a
  /// deterministic jitter factor in [1, 1 + kJitterFraction).  The sequence
  /// is non-decreasing in k and a pure function of k.
  double backoff_before(std::size_t attempt) const;

  /// Backoff before `attempt` given why the previous attempt failed.
  /// kTimeout follows backoff_before's exponential schedule; kCorrupt
  /// waits only the flat base backoff (jittered, capped) since the link
  /// itself is alive.  A positive `retry_after_hint_sec` floors the result
  /// for every reason: the edge's circuit breaker advertises its remaining
  /// OPEN cooldown this way — the hint says when to come back, and the
  /// edge never comes back sooner.  Attempt 0 never waits.
  double backoff_for(std::size_t attempt, RejectReason reason,
                     double retry_after_hint_sec = 0.0) const;

  /// Whether `attempt` (0-based) may start after waiting `backoff_sec`,
  /// given the wait already spent on this logical call.  Attempt 0 is
  /// always allowed; later attempts must fit backoff + timeout inside the
  /// deadline (a RetryAfter hint can stretch the backoff arbitrarily).
  bool allow_attempt_after(std::size_t attempt, double elapsed_sec,
                           double backoff_sec, double timeout_sec) const;

 private:
  RetryOptions options_;
};

}  // namespace emap::net
