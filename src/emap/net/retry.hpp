// Edge-side retry policy for cloud calls over a lossy link.
//
// The recovery half of the fault model (fault.hpp): when a cloud round
// trip times out — upload lost, response lost, or either copy corrupted —
// the edge retries with capped exponential backoff and deterministic
// jitter, up to a max attempt count and a hard per-call deadline.  The
// timeout is derived from the channel's expected transfer time rather than
// hard-coded, so the same policy is sane on HSPA and on LTE-Advanced.
//
// Everything here is a pure function of (options, seed, attempt index):
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

/// Retry knobs.  Defaults keep the worst-case stall of one logical cloud
/// call within the paper's ~3 s initial-latency budget order of magnitude.
struct RetryOptions {
  std::size_t max_attempts = 3;     ///< total tries per logical call (>= 1)
  double timeout_multiplier = 4.0;  ///< timeout = mult x expected transfer
  double min_timeout_sec = 0.25;    ///< floor (covers the cloud search leg)
  double max_timeout_sec = 5.0;     ///< ceiling per attempt
  double base_backoff_sec = 0.10;   ///< backoff before attempt 1
  double backoff_cap_sec = 2.00;    ///< exponential growth stops here
  double jitter_fraction = 0.10;    ///< deterministic jitter in [0, 1)
  double deadline_sec = 20.0;       ///< hard cap on cumulative wait per call
  std::uint64_t seed = 0x5eedULL;   ///< jitter stream seed

  /// Throws InvalidArgument when the knobs are inconsistent (e.g. zero
  /// attempts, min > max timeout, or a deadline no attempt can fit in).
  void validate() const;
};

/// Deterministic timeout/backoff schedule.
class RetryPolicy {
 public:
  explicit RetryPolicy(RetryOptions options = {});

  const RetryOptions& options() const { return options_; }

  /// Per-attempt timeout for a call whose fault-free transfer is expected
  /// to take `expected_transfer_sec`: clamp(mult x expected, min, max).
  double timeout_for(double expected_transfer_sec) const;

  /// Backoff observed before `attempt` (0-based).  Attempt 0 starts
  /// immediately; attempt k >= 1 waits min(cap, base x 2^(k-1)) stretched
  /// by a deterministic jitter factor in [1, 1 + jitter_fraction).  The
  /// sequence is non-decreasing in k and a pure function of (seed, k).
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

  /// Whether `attempt` (0-based) may start, given the wait already spent
  /// on this logical call.  Attempt 0 is always allowed; later attempts
  /// must fit backoff + timeout inside the deadline.
  bool allow_attempt(std::size_t attempt, double elapsed_sec,
                     double timeout_sec) const;

  /// allow_attempt with an explicit backoff — needed when backoff_for
  /// exceeds the default schedule (a RetryAfter hint can be arbitrarily
  /// long and must still respect the per-call deadline).
  bool allow_attempt_after(std::size_t attempt, double elapsed_sec,
                           double backoff_sec, double timeout_sec) const;

  /// Upper bound on the cumulative wait of one logical call (all attempts
  /// failing at their timeout, maximal jitter).  validate() guarantees
  /// this never exceeds options().deadline_sec.
  double worst_case_wait(double expected_transfer_sec) const;

 private:
  RetryOptions options_;
};

}  // namespace emap::net
