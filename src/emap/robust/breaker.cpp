#include "emap/robust/breaker.hpp"

#include <algorithm>

#include "emap/common/error.hpp"

namespace emap::robust {

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(obs::MetricsRegistry* registry)
    : registry_(registry) {
  recent_failure_.assign(kBreakerWindow, false);
  if (registry_ != nullptr) {
    state_metric_ = &registry_->gauge(
        "emap_robust_breaker_state", {},
        "Cloud-link circuit breaker state (0=closed 1=open 2=half_open)");
    opens_metric_ = &registry_->counter(
        "emap_robust_breaker_opens_total", {},
        "Times the cloud-link breaker tripped open");
    rejected_metric_ = &registry_->counter(
        "emap_robust_breaker_rejected_total", {},
        "Cloud calls short-circuited while the breaker was open");
    state_metric_->set(0.0);
  }
}

std::size_t CircuitBreaker::window_failures_locked() const {
  return static_cast<std::size_t>(
      std::count(recent_failure_.begin(), recent_failure_.end(), true));
}

void CircuitBreaker::trip_locked(double now_sec) {
  state_ = BreakerState::kOpen;
  open_until_ = now_sec + kBreakerCooldownSec;
  probe_successes_ = 0;
  ++summary_.opens;
  if (opens_metric_ != nullptr) {
    opens_metric_->increment();
  }
  if (state_metric_ != nullptr) {
    state_metric_->set(1.0);
  }
}

bool CircuitBreaker::allow(double now_sec) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == BreakerState::kOpen) {
    if (now_sec < open_until_) {
      ++summary_.rejected;
      if (rejected_metric_ != nullptr) {
        rejected_metric_->increment();
      }
      return false;
    }
    // Cooldown expired: admit a probe.  The expiry condition is >=, so a
    // recovering link is always eventually probed (the breaker cannot stay
    // OPEN forever).
    state_ = BreakerState::kHalfOpen;
    probe_successes_ = 0;
    if (state_metric_ != nullptr) {
      state_metric_->set(2.0);
    }
  }
  return true;
}

void CircuitBreaker::record_success(double now_sec) {
  (void)now_sec;
  std::lock_guard<std::mutex> lock(mutex_);
  ++summary_.successes;
  if (state_ == BreakerState::kHalfOpen) {
    ++probe_successes_;
    if (probe_successes_ >= kBreakerHalfOpenSuccesses) {
      state_ = BreakerState::kClosed;
      open_until_ = 0.0;
      recent_failure_.assign(kBreakerWindow, false);
      recent_next_ = 0;
      recent_count_ = 0;
      if (state_metric_ != nullptr) {
        state_metric_->set(0.0);
      }
    }
    return;
  }
  if (state_ == BreakerState::kClosed) {
    recent_failure_[recent_next_] = false;
    recent_next_ = (recent_next_ + 1) % kBreakerWindow;
    recent_count_ = std::min(recent_count_ + 1, kBreakerWindow);
  }
}

void CircuitBreaker::record_failure(double now_sec) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++summary_.failures;
  if (state_ == BreakerState::kHalfOpen) {
    // The probe failed: the link is still bad; restart the cooldown.
    trip_locked(now_sec);
    return;
  }
  if (state_ == BreakerState::kClosed) {
    recent_failure_[recent_next_] = true;
    recent_next_ = (recent_next_ + 1) % kBreakerWindow;
    recent_count_ = std::min(recent_count_ + 1, kBreakerWindow);
    if (window_failures_locked() >= kBreakerOpenAfterFailures) {
      trip_locked(now_sec);
    }
  }
}

BreakerState CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

double CircuitBreaker::open_until_sec() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_ == BreakerState::kOpen ? open_until_ : 0.0;
}

double CircuitBreaker::retry_after_hint(double now_sec) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != BreakerState::kOpen) {
    return 0.0;
  }
  return std::max(0.0, open_until_ - now_sec);
}

BreakerCheckpoint CircuitBreaker::checkpoint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BreakerCheckpoint out;
  out.state = state_;
  out.open_until_sec = open_until_;
  out.probe_successes = probe_successes_;
  out.recent_failure.reserve(recent_failure_.size());
  for (const bool failure : recent_failure_) {
    out.recent_failure.push_back(failure ? 1u : 0u);
  }
  out.recent_next = recent_next_;
  out.recent_count = recent_count_;
  out.summary = summary_;
  out.summary.final_state = state_;
  return out;
}

void CircuitBreaker::restore(const BreakerCheckpoint& saved) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(saved.recent_failure.size() == recent_failure_.size() &&
              saved.recent_next < kBreakerWindow &&
              saved.recent_count <= kBreakerWindow,
          "CircuitBreaker::restore: saved state does not match this "
          "breaker's window");
  state_ = saved.state;
  open_until_ = saved.open_until_sec;
  probe_successes_ = static_cast<std::size_t>(saved.probe_successes);
  for (std::size_t i = 0; i < recent_failure_.size(); ++i) {
    recent_failure_[i] = saved.recent_failure[i] != 0;
  }
  recent_next_ = static_cast<std::size_t>(saved.recent_next);
  recent_count_ = static_cast<std::size_t>(saved.recent_count);
  summary_ = saved.summary;
  summary_.final_state = state_;
  if (state_metric_ != nullptr) {
    state_metric_->set(state_ == BreakerState::kClosed
                           ? 0.0
                           : (state_ == BreakerState::kOpen ? 1.0 : 2.0));
  }
}

BreakerSummary CircuitBreaker::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  BreakerSummary out = summary_;
  out.final_state = state_;
  return out;
}

}  // namespace emap::robust
