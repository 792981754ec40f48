#include "emap/net/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "emap/common/error.hpp"

namespace emap::net {
namespace {

TEST(RetryPolicy, TimeoutScalesWithExpectedTransfer) {
  const RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.timeout_for(0.5), kTimeoutMultiplier * 0.5);
  EXPECT_DOUBLE_EQ(policy.timeout_for(0.5), 2.0);
}

TEST(RetryPolicy, TimeoutClampedToConfiguredRange) {
  const RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.timeout_for(0.0), kMinTimeoutSec);
  EXPECT_DOUBLE_EQ(policy.timeout_for(1e-9), kMinTimeoutSec);
  EXPECT_DOUBLE_EQ(policy.timeout_for(1e6), kMaxTimeoutSec);
  // Negative expectations (shouldn't happen, but must not produce a
  // negative timeout) clamp to the floor too.
  EXPECT_DOUBLE_EQ(policy.timeout_for(-1.0), kMinTimeoutSec);
}

TEST(RetryPolicyProperty, BackoffIsCappedAndNonDecreasing) {
  RetryOptions options;
  options.max_attempts = 12;
  options.deadline_sec = 1e9;  // not under test here
  const RetryPolicy policy(options);
  EXPECT_DOUBLE_EQ(policy.backoff_before(0), 0.0);
  double previous = 0.0;
  for (std::size_t attempt = 1; attempt <= 40; ++attempt) {
    const double backoff = policy.backoff_before(attempt);
    EXPECT_GE(backoff, previous) << "attempt " << attempt;
    EXPECT_GE(backoff, std::min(kBackoffCapSec, kBaseBackoffSec))
        << "attempt " << attempt;
    EXPECT_LE(backoff, kBackoffCapSec) << "attempt " << attempt;
    previous = backoff;
  }
  EXPECT_DOUBLE_EQ(policy.backoff_before(40), kBackoffCapSec);
}

TEST(RetryPolicyProperty, BackoffDeterministicPerSeed) {
  // The jitter stream has one seed (kJitterSeed): two policies agree
  // attempt by attempt, and the jitter stays inside its fraction.
  const RetryPolicy a;
  const RetryPolicy b;
  for (std::size_t attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_DOUBLE_EQ(a.backoff_before(attempt), b.backoff_before(attempt));
    // Repeated queries of the same attempt must not advance hidden state.
    EXPECT_DOUBLE_EQ(a.backoff_before(attempt), a.backoff_before(attempt));
  }
  const double unjittered = kBaseBackoffSec;  // attempt 1: base x 2^0
  EXPECT_GE(a.backoff_before(1), unjittered);
  EXPECT_LT(a.backoff_before(1), unjittered * (1.0 + kJitterFraction));
}

/// Upper bound on one call's cumulative wait from the schedule constants:
/// every one of `attempts` fails at `timeout` after the largest jittered
/// backoff.
double schedule_bound(std::size_t attempts, double timeout) {
  double total = 0.0;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    const double backoff =
        attempt == 0
            ? 0.0
            : std::min(kBackoffCapSec,
                       kBaseBackoffSec *
                           std::ldexp(1.0, static_cast<int>(attempt) - 1) *
                           (1.0 + kJitterFraction));
    total += backoff + timeout;
  }
  return total;
}

/// Drives the policy the way the pipeline does — every attempt times out
/// — and returns the accumulated wait; `attempts` counts the attempts
/// started.
double lossy_call_wait(const RetryPolicy& policy, double timeout,
                       std::size_t& attempts) {
  double elapsed = 0.0;
  attempts = 0;
  for (std::size_t attempt = 0;
       policy.allow_attempt_after(attempt, elapsed,
                                  policy.backoff_before(attempt), timeout);
       ++attempt) {
    elapsed += policy.backoff_before(attempt);
    elapsed += timeout;  // attempt fails at its timeout
    ++attempts;
  }
  return elapsed;
}

TEST(RetryPolicyProperty, WorstCaseWaitNeverExceedsDeadline) {
  for (std::size_t attempts : {1U, 3U, 6U}) {
    for (double deadline : {kMaxTimeoutSec, 6.0, 20.0}) {
      for (double expected : {0.001, 0.1, 2.0, 100.0}) {
        RetryOptions options;
        options.max_attempts = attempts;
        options.deadline_sec = deadline;
        const RetryPolicy policy(options);
        const double timeout = policy.timeout_for(expected);
        std::size_t started = 0;
        const double wait = lossy_call_wait(policy, timeout, started);
        EXPECT_LE(started, attempts);
        EXPECT_LE(wait, options.deadline_sec + 1e-12);
        EXPECT_LE(wait, schedule_bound(attempts, timeout) + 1e-12);
      }
    }
  }
}

TEST(RetryPolicyProperty, SimulatedLossyCallStaysWithinWorstCase) {
  // Every attempt times out; the accumulated wait stays inside the
  // schedule's bound and the deadline.
  RetryOptions options;
  options.max_attempts = 5;
  options.deadline_sec = 30.0;
  const RetryPolicy policy(options);
  const double timeout = policy.timeout_for(0.4);
  std::size_t attempts = 0;
  const double elapsed = lossy_call_wait(policy, timeout, attempts);
  EXPECT_EQ(attempts, options.max_attempts);
  EXPECT_LE(elapsed, std::min(schedule_bound(options.max_attempts, timeout),
                              options.deadline_sec) +
                         1e-12);
  EXPECT_LE(elapsed, options.deadline_sec + 1e-12);
}

TEST(RetryPolicy, AllowAttemptEnforcesMaxAttempts) {
  RetryOptions options;
  options.max_attempts = 3;
  const RetryPolicy policy(options);
  EXPECT_TRUE(policy.allow_attempt_after(0, 0.0, 0.0, 1.0));
  EXPECT_TRUE(policy.allow_attempt_after(2, 0.0, 0.1, 1.0));
  EXPECT_FALSE(policy.allow_attempt_after(3, 0.0, 0.1, 1.0));
  EXPECT_FALSE(policy.allow_attempt_after(100, 0.0, 0.1, 1.0));
}

TEST(RetryPolicy, AllowAttemptEnforcesDeadline) {
  RetryOptions options;
  options.max_attempts = 10;
  options.deadline_sec = 5.0;
  const RetryPolicy policy(options);
  // First attempt is always allowed even when the timeout alone would
  // exceed the remaining budget.
  EXPECT_TRUE(policy.allow_attempt_after(0, 0.0, 0.0, 5.0));
  // A retry whose backoff + timeout no longer fits is refused.
  EXPECT_FALSE(policy.allow_attempt_after(1, 4.0, 0.1, 2.0));
  EXPECT_TRUE(policy.allow_attempt_after(1, 0.0, 0.1, 1.0));
  // A long backoff (a RetryAfter hint) alone can exhaust the deadline.
  EXPECT_FALSE(policy.allow_attempt_after(1, 0.0, 4.5, 1.0));
}

// A RetryAfter hint — advertised by the edge's open circuit breaker —
// floors the backoff for EVERY reject reason: whoever issued the hint said
// when to come back.
TEST(RetryPolicy, RetryAfterHintFloorsBackoffForEveryReason) {
  const RetryPolicy policy;
  const double hint = 7.5;  // far above any scheduled backoff
  for (const RejectReason reason :
       {RejectReason::kTimeout, RejectReason::kCorrupt}) {
    for (std::size_t attempt = 1; attempt <= 4; ++attempt) {
      EXPECT_DOUBLE_EQ(policy.backoff_for(attempt, reason, hint), hint)
          << reject_reason_name(reason) << " attempt " << attempt;
    }
  }
  // A hint below the scheduled backoff is a no-op (floor, not override).
  const double scheduled = policy.backoff_for(3, RejectReason::kTimeout);
  EXPECT_DOUBLE_EQ(policy.backoff_for(3, RejectReason::kTimeout, 1e-6),
                   scheduled);
  // Attempt 0 never waits, hint or not.
  EXPECT_DOUBLE_EQ(policy.backoff_for(0, RejectReason::kTimeout, hint), 0.0);
}

TEST(RetryPolicy, RetryAfterHintDominatesButNeverShortensBackoff) {
  const RetryPolicy policy;
  for (const RejectReason reason :
       {RejectReason::kTimeout, RejectReason::kCorrupt}) {
    // A hint dominates the policy's own schedule...
    EXPECT_DOUBLE_EQ(policy.backoff_for(1, reason, /*hint=*/2.5), 2.5)
        << reject_reason_name(reason);
    // ...but never shortens it.
    const double own = policy.backoff_for(1, reason, 0.0);
    EXPECT_DOUBLE_EQ(own, policy.backoff_for(1, reason));
    EXPECT_GE(policy.backoff_for(1, reason, own / 2.0), own)
        << reject_reason_name(reason);
  }
}

TEST(RetryOptions, ValidateRejectsInconsistentKnobs) {
  RetryOptions options;
  EXPECT_NO_THROW(options.validate());
  options.max_attempts = 0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = RetryOptions{};
  // Below kMaxTimeoutSec: attempt 0 can't fit.
  options.deadline_sec = kMaxTimeoutSec - 0.5;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options.deadline_sec = kMaxTimeoutSec;
  EXPECT_NO_THROW(options.validate());
}

}  // namespace
}  // namespace emap::net
