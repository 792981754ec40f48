// CircuitBreaker unit + property tests, including the liveness property
// the header promises: the breaker can never stay OPEN forever.
#include "emap/robust/breaker.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"
#include "emap/obs/export.hpp"

namespace emap::robust {
namespace {

/// Records kBreakerOpenAfterFailures failures at `t_sec`, which trips a
/// fresh breaker there.
void trip(CircuitBreaker& breaker, double t_sec) {
  for (std::size_t i = 0; i < kBreakerOpenAfterFailures; ++i) {
    breaker.record_failure(t_sec);
  }
}

TEST(Breaker, StartsClosedAndAllowsEverything) {
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  for (double t = 0.0; t < 10.0; t += 1.0) {
    EXPECT_TRUE(breaker.allow(t));
    breaker.record_success(t);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.summary().opens, 0u);
}

TEST(Breaker, TripsOpenAfterWindowFailures) {
  CircuitBreaker breaker;
  for (std::size_t i = 1; i < kBreakerOpenAfterFailures; ++i) {
    breaker.record_failure(1.0);
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  }
  breaker.record_failure(2.0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(breaker.open_until_sec(), 2.0 + kBreakerCooldownSec);
  // Calls inside the cooldown are short-circuited and counted.
  EXPECT_FALSE(breaker.allow(3.0));
  EXPECT_FALSE(breaker.allow(2.0 + kBreakerCooldownSec - 0.1));
  EXPECT_EQ(breaker.summary().rejected, 2u);
}

TEST(Breaker, SuccessesInterleavedKeepItClosed) {
  // Every window of kBreakerWindow outcomes holds one failure fewer than
  // trips the breaker.
  CircuitBreaker breaker;
  double t = 0.0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (std::size_t i = 0; i + 1 < kBreakerOpenAfterFailures; ++i) {
      breaker.record_failure(t += 1.0);
    }
    for (std::size_t i = kBreakerOpenAfterFailures - 1; i < kBreakerWindow;
         ++i) {
      breaker.record_success(t += 1.0);
    }
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(Breaker, CooldownExpiryAdmitsProbeAndSuccessesClose) {
  CircuitBreaker breaker;
  trip(breaker, 2.0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  const double reopen = 2.0 + kBreakerCooldownSec;
  EXPECT_TRUE(breaker.allow(reopen));  // at open_until: probe admitted
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  for (std::size_t i = 1; i < kBreakerHalfOpenSuccesses; ++i) {
    breaker.record_success(reopen + 0.5);
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  }
  breaker.record_success(reopen + 1.5);  // kBreakerHalfOpenSuccesses
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  // The failure window restarted: the failures before the trip no longer
  // count, so one failure short of the limit keeps it closed.
  for (std::size_t i = 1; i < kBreakerOpenAfterFailures; ++i) {
    breaker.record_failure(reopen + 2.0);
  }
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(Breaker, ProbeFailureReopensWithFreshCooldown) {
  CircuitBreaker breaker;
  trip(breaker, 2.0);
  const double reopen = 2.0 + kBreakerCooldownSec;
  ASSERT_TRUE(breaker.allow(reopen));
  breaker.record_failure(reopen + 1.0);  // the probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(breaker.open_until_sec(),
                   reopen + 1.0 + kBreakerCooldownSec);
  EXPECT_EQ(breaker.summary().opens, 2u);
}

// A decoded checkpoint is outside input: a ring of another size is
// refused.
TEST(Breaker, RestoreRejectsARingOfAnotherSize) {
  CircuitBreaker breaker;
  BreakerCheckpoint saved = breaker.checkpoint();
  ASSERT_EQ(saved.recent_failure.size(), kBreakerWindow);
  EXPECT_NO_THROW(breaker.restore(saved));
  saved.recent_failure.push_back(0);
  EXPECT_THROW(breaker.restore(saved), InvalidArgument);
}

TEST(Breaker, MetricsExportStateOpensAndRejections) {
  obs::MetricsRegistry registry;
  CircuitBreaker breaker(&registry);
  trip(breaker, 2.0);
  EXPECT_FALSE(breaker.allow(2.5));
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("emap_robust_breaker_opens_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("emap_robust_breaker_rejected_total 1"),
            std::string::npos);
}

// --- RetryAfter hint (fed into net::RetryPolicy::backoff_for) ---------

TEST(Breaker, RetryAfterHintIsZeroWhileClosed) {
  CircuitBreaker breaker;
  EXPECT_DOUBLE_EQ(breaker.retry_after_hint(0.0), 0.0);
  breaker.record_success(1.0);
  breaker.record_failure(2.0);  // one failure: still CLOSED
  EXPECT_DOUBLE_EQ(breaker.retry_after_hint(3.0), 0.0);
}

TEST(Breaker, RetryAfterHintAdvertisesTheRemainingCooldown) {
  CircuitBreaker breaker;
  trip(breaker, 2.0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_DOUBLE_EQ(breaker.retry_after_hint(2.0), kBreakerCooldownSec);
  // The hint shrinks as the clock advances toward the reopen instant...
  EXPECT_DOUBLE_EQ(breaker.retry_after_hint(4.0), kBreakerCooldownSec - 2.0);
  // ...and clamps at zero once the cooldown has expired.
  EXPECT_DOUBLE_EQ(breaker.retry_after_hint(3.0 + kBreakerCooldownSec), 0.0);
}

TEST(Breaker, RetryAfterHintIsZeroAgainInHalfOpen) {
  CircuitBreaker breaker;
  trip(breaker, 2.0);
  ASSERT_TRUE(breaker.allow(2.0 + kBreakerCooldownSec));  // HALF_OPEN
  EXPECT_DOUBLE_EQ(breaker.retry_after_hint(2.0 + kBreakerCooldownSec), 0.0);
}

// Property (promised in the header): whatever the outcome history, time
// reaching the cooldown expiry always admits a probe — the breaker cannot
// stay OPEN forever.
TEST(BreakerProperty, NeverStaysOpenForever) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    CircuitBreaker breaker;
    double now = 0.0;
    for (std::size_t i = 0; i < 500; ++i) {
      now += rng.uniform(0.0, 2.0);
      if (breaker.allow(now)) {
        if (rng.uniform() < 0.6) {
          breaker.record_failure(now);
        } else {
          breaker.record_success(now);
        }
      } else {
        // Rejected: the breaker is OPEN with a finite reopen instant, and
        // advancing the clock to it always admits the probe.
        const double reopen = breaker.open_until_sec();
        ASSERT_EQ(breaker.state(), BreakerState::kOpen);
        ASSERT_GE(reopen, now);
        EXPECT_TRUE(breaker.allow(reopen))
            << "seed " << seed << " iteration " << i;
        now = std::max(now, reopen);
        breaker.record_success(now);
      }
    }
  }
}

}  // namespace
}  // namespace emap::robust
