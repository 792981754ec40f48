#include "emap/net/retry.hpp"

#include <algorithm>
#include <cmath>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"

namespace emap::net {

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kTimeout:
      return "timeout";
    case RejectReason::kCorrupt:
      return "corrupt";
  }
  return "?";
}

void RetryOptions::validate() const {
  require(max_attempts >= 1, "RetryOptions: max_attempts must be >= 1");
  require(deadline_sec >= kMaxTimeoutSec,
          "RetryOptions: deadline_sec must fit at least one attempt");
}

RetryPolicy::RetryPolicy(RetryOptions options) : options_(options) {
  options_.validate();
}

double RetryPolicy::timeout_for(double expected_transfer_sec) const {
  const double scaled =
      kTimeoutMultiplier * std::max(expected_transfer_sec, 0.0);
  return std::clamp(scaled, kMinTimeoutSec, kMaxTimeoutSec);
}

double RetryPolicy::backoff_before(std::size_t attempt) const {
  if (attempt == 0) {
    return 0.0;
  }
  const double raw =
      kBaseBackoffSec *
      std::ldexp(1.0, static_cast<int>(std::min<std::size_t>(attempt, 60)) -
                          1);
  // Jitter is a pure function of the attempt: forked streams make the k-th
  // backoff identical across replays regardless of what happened on
  // earlier attempts.  The factor lives in [1, 1 + f) with f < 1, so the
  // sequence stays non-decreasing (each uncapped step doubles).
  const double u = Rng(kJitterSeed).fork(attempt).uniform();
  const double jittered = raw * (1.0 + kJitterFraction * u);
  return std::min(kBackoffCapSec, jittered);
}

double RetryPolicy::backoff_for(std::size_t attempt, RejectReason reason,
                                double retry_after_hint_sec) const {
  if (attempt == 0) {
    return 0.0;
  }
  double backoff = backoff_before(attempt);
  if (reason == RejectReason::kCorrupt) {
    // The link delivered — fast, flat retry instead of exponential
    // penance.  Same deterministic jitter stream as backoff_before, so
    // replays stay exact.
    const double u = Rng(kJitterSeed).fork(attempt).uniform();
    backoff = std::min(kBackoffCapSec,
                       kBaseBackoffSec * (1.0 + kJitterFraction * u));
  }
  // A positive RetryAfter hint floors the backoff regardless of reason:
  // the edge's own circuit breaker advertises its remaining OPEN cooldown
  // this way — it said when to come back; never come back sooner.
  return std::max(backoff, std::max(retry_after_hint_sec, 0.0));
}

bool RetryPolicy::allow_attempt_after(std::size_t attempt, double elapsed_sec,
                                      double backoff_sec,
                                      double timeout_sec) const {
  if (attempt >= options_.max_attempts) {
    return false;
  }
  if (attempt == 0) {
    return true;
  }
  // A retry must be able to run to its timeout without blowing the
  // per-call deadline; otherwise the edge gives up and degrades instead.
  return elapsed_sec + backoff_sec + timeout_sec <= options_.deadline_sec;
}

}  // namespace emap::net
