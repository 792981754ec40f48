#include "emap/net/retry.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "emap/common/error.hpp"

namespace emap::net {
namespace {

TEST(RetryPolicy, TimeoutScalesWithExpectedTransfer) {
  RetryOptions options;
  options.timeout_multiplier = 4.0;
  options.min_timeout_sec = 0.25;
  options.max_timeout_sec = 5.0;
  const RetryPolicy policy(options);
  EXPECT_DOUBLE_EQ(policy.timeout_for(0.5), 2.0);
}

TEST(RetryPolicy, TimeoutClampedToConfiguredRange) {
  const RetryPolicy policy;
  const RetryOptions& o = policy.options();
  EXPECT_DOUBLE_EQ(policy.timeout_for(0.0), o.min_timeout_sec);
  EXPECT_DOUBLE_EQ(policy.timeout_for(1e-9), o.min_timeout_sec);
  EXPECT_DOUBLE_EQ(policy.timeout_for(1e6), o.max_timeout_sec);
  // Negative expectations (shouldn't happen, but must not produce a
  // negative timeout) clamp to the floor too.
  EXPECT_DOUBLE_EQ(policy.timeout_for(-1.0), o.min_timeout_sec);
}

TEST(RetryPolicyProperty, BackoffIsCappedAndNonDecreasing) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 0xdeadULL}) {
    RetryOptions options;
    options.max_attempts = 12;
    options.base_backoff_sec = 0.05;
    options.backoff_cap_sec = 1.0;
    options.jitter_fraction = 0.25;
    options.deadline_sec = 1e9;  // not under test here
    options.seed = seed;
    const RetryPolicy policy(options);
    EXPECT_DOUBLE_EQ(policy.backoff_before(0), 0.0);
    double previous = 0.0;
    for (std::size_t attempt = 1; attempt <= 40; ++attempt) {
      const double backoff = policy.backoff_before(attempt);
      EXPECT_GE(backoff, previous) << "attempt " << attempt;
      EXPECT_LE(backoff,
                options.backoff_cap_sec * (1.0 + options.jitter_fraction))
          << "attempt " << attempt;
      previous = backoff;
    }
  }
}

TEST(RetryPolicyProperty, BackoffDeterministicPerSeed) {
  RetryOptions options;
  options.jitter_fraction = 0.3;
  options.seed = 2024;
  const RetryPolicy a(options);
  const RetryPolicy b(options);
  options.seed = 2025;
  const RetryPolicy c(options);
  bool any_difference = false;
  for (std::size_t attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_DOUBLE_EQ(a.backoff_before(attempt), b.backoff_before(attempt));
    // Repeated queries of the same attempt must not advance hidden state.
    EXPECT_DOUBLE_EQ(a.backoff_before(attempt), a.backoff_before(attempt));
    if (a.backoff_before(attempt) != c.backoff_before(attempt)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "different seeds produced identical jitter";
}

TEST(RetryPolicyProperty, WorstCaseWaitNeverExceedsDeadline) {
  for (std::uint64_t seed : {3ULL, 11ULL, 99ULL}) {
    for (double deadline : {1.0, 5.0, 20.0}) {
      for (double expected : {0.001, 0.1, 2.0, 100.0}) {
        RetryOptions options;
        options.max_attempts = 6;
        options.max_timeout_sec = 1.0;
        options.deadline_sec = deadline;
        options.seed = seed;
        const RetryPolicy policy(options);
        EXPECT_LE(policy.worst_case_wait(expected),
                  options.deadline_sec + 1e-12);
      }
    }
  }
}

TEST(RetryPolicyProperty, SimulatedLossyCallStaysWithinWorstCase) {
  // Drive the policy the way the pipeline does — every attempt times out —
  // and check the accumulated wait against worst_case_wait().
  RetryOptions options;
  options.max_attempts = 5;
  options.deadline_sec = 30.0;
  const RetryPolicy policy(options);
  const double expected = 0.4;
  const double timeout = policy.timeout_for(expected);
  double elapsed = 0.0;
  std::size_t attempts = 0;
  for (std::size_t attempt = 0;
       policy.allow_attempt(attempt, elapsed, timeout); ++attempt) {
    elapsed += policy.backoff_before(attempt);
    elapsed += timeout;  // attempt fails at its timeout
    ++attempts;
  }
  EXPECT_EQ(attempts, options.max_attempts);
  EXPECT_LE(elapsed, policy.worst_case_wait(expected) + 1e-12);
  EXPECT_LE(elapsed, options.deadline_sec + 1e-12);
}

TEST(RetryPolicy, AllowAttemptEnforcesMaxAttempts) {
  RetryOptions options;
  options.max_attempts = 3;
  const RetryPolicy policy(options);
  EXPECT_TRUE(policy.allow_attempt(0, 0.0, 1.0));
  EXPECT_TRUE(policy.allow_attempt(2, 0.0, 1.0));
  EXPECT_FALSE(policy.allow_attempt(3, 0.0, 1.0));
  EXPECT_FALSE(policy.allow_attempt(100, 0.0, 1.0));
}

TEST(RetryPolicy, AllowAttemptEnforcesDeadline) {
  RetryOptions options;
  options.max_attempts = 10;
  options.deadline_sec = 5.0;
  options.max_timeout_sec = 5.0;
  const RetryPolicy policy(options);
  // First attempt is always allowed even when the timeout alone would
  // exceed the remaining budget.
  EXPECT_TRUE(policy.allow_attempt(0, 0.0, 5.0));
  // A retry whose backoff + timeout no longer fits is refused.
  EXPECT_FALSE(policy.allow_attempt(1, 4.0, 2.0));
  EXPECT_TRUE(policy.allow_attempt(1, 0.0, 1.0));
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
  RetryOptions options;
  options.base_backoff_sec = 0.1;
  options.jitter_fraction = 0.0;
  const RetryPolicy policy(options);
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
  options.max_attempts = 0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = RetryOptions{};
  options.min_timeout_sec = 2.0;
  options.max_timeout_sec = 1.0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = RetryOptions{};
  options.jitter_fraction = 1.0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = RetryOptions{};
  options.backoff_cap_sec = 0.01;  // below base_backoff_sec
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = RetryOptions{};
  options.deadline_sec = 0.5;  // below max_timeout_sec: attempt 0 can't fit
  EXPECT_THROW(options.validate(), InvalidArgument);
}

}  // namespace
}  // namespace emap::net
