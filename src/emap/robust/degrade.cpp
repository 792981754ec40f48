#include "emap/robust/degrade.hpp"

#include <algorithm>

#include "emap/common/error.hpp"
#include "emap/obs/slo.hpp"

namespace emap::robust {

const char* degrade_state_name(DegradeState state) {
  switch (state) {
    case DegradeState::kNominal:
      return "nominal";
    case DegradeState::kDegraded:
      return "degraded";
    case DegradeState::kCritical:
      return "critical";
    case DegradeState::kRecovering:
      return "recovering";
  }
  return "?";
}

DegradationController::DegradationController(obs::MetricsRegistry* registry)
    : registry_(registry) {
  if (registry_ != nullptr) {
    state_metric_ = &registry_->gauge(
        "emap_robust_state", {},
        "Degradation controller state (0=nominal 1=degraded 2=critical "
        "3=recovering)");
    level_metric_ = &registry_->gauge(
        "emap_robust_shed_level", {},
        "Current shed level (tracked cap = top_k >> level)");
    pressure_metric_ = &registry_->counter(
        "emap_robust_pressure_windows_total", {},
        "Windows classified as pressure (deadline miss or burn rate above "
        "the entry threshold)");
    state_metric_->set(0.0);
    level_metric_->set(0.0);
  }
}

void DegradationController::transition_locked(DegradeState to,
                                              std::size_t window_index,
                                              double t_sec) {
  if (to == state_) {
    return;
  }
  transitions_.push_back({window_index, t_sec, state_, to});
  ++summary_.transitions;
  if (to != DegradeState::kNominal) {
    summary_.entered_degraded = true;
  }
  state_ = to;
  bad_streak_ = 0;
  clean_streak_ = 0;
  miss_streak_ = 0;
  if (to == DegradeState::kNominal) {
    recovered_since_miss_ = true;
  }
  if (to == DegradeState::kCritical) {
    critical_left_ = kCriticalHold;
  }
  if (state_metric_ != nullptr) {
    state_metric_->set(static_cast<double>(state_));
  }
  if (registry_ != nullptr) {
    registry_
        ->counter("emap_robust_transitions_total",
                  {{"from", degrade_state_name(transitions_.back().from)},
                   {"to", degrade_state_name(to)}},
                  "Degradation controller state transitions")
        .increment();
  }
}

void DegradationController::set_level_locked(std::size_t level) {
  shed_level_ = std::min(level, kMaxShedLevel);
  summary_.max_shed_level = std::max(summary_.max_shed_level, shed_level_);
  if (level_metric_ != nullptr) {
    level_metric_->set(static_cast<double>(shed_level_));
  }
}

void DegradationController::observe_window(const WindowSignal& signal) {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case DegradeState::kNominal:
      ++summary_.windows_nominal;
      break;
    case DegradeState::kDegraded:
      ++summary_.windows_degraded;
      break;
    case DegradeState::kCritical:
      ++summary_.windows_critical;
      break;
    case DegradeState::kRecovering:
      ++summary_.windows_recovering;
      break;
  }

  if (signal.stage_stuck) {
    transition_locked(DegradeState::kCritical, signal.window_index,
                      signal.t_sec);
    set_level_locked(kMaxShedLevel);
    summary_.final_state = state_;
    return;
  }

  // CRITICAL holds for a fixed number of windows (tracking is suspended, so
  // there is no latency signal to read) and then attempts recovery at the
  // deepest shed level; the RECOVERING hysteresis guards against flapping.
  if (state_ == DegradeState::kCritical) {
    if (critical_left_ > 0) {
      --critical_left_;
    }
    if (critical_left_ == 0) {
      transition_locked(DegradeState::kRecovering, signal.window_index,
                        signal.t_sec);
    }
    summary_.final_state = state_;
    return;
  }

  if (signal.no_observation) {
    // Quality-gated window: no latency evidence either way; hold streaks.
    summary_.final_state = state_;
    return;
  }

  // Entry pressure reads the rolling burn rate (a single miss keeps burn
  // elevated for the whole SLO window, which is exactly the early-warning
  // property we want at the NOMINAL->DEGRADED edge).  Once degraded, the
  // controller steers on per-window evidence only — the sticky burn rate
  // would otherwise block recovery for a full rolling window and escalate
  // on windows that are actually clean.  Burn alone also must not re-enter
  // after a completed recovery: the elevated burn is the echo of the miss
  // the controller already handled, not fresh evidence.
  if (signal.deadline_miss) {
    recovered_since_miss_ = false;
  }
  // Queue-depth pressure joins burn rate as a shed signal (streaming mode):
  // a backlog between stages means the edge is falling behind the window
  // cadence even when each individual step stays inside its budget.
  const bool queue_pressure = signal.queue_pressure >= kQueuePressureEnter;
  const bool pressure =
      signal.deadline_miss || queue_pressure ||
      (signal.burn_rate > obs::kBurnRateLimit && !recovered_since_miss_);
  // A pressured queue disqualifies the window from counting as clean even
  // when its own latency was fine: recovery must wait for the backlog to
  // drain, not just for one good step.
  const bool clean =
      !signal.deadline_miss && !signal.near_miss && !queue_pressure;
  if (pressure && pressure_metric_ != nullptr) {
    pressure_metric_->increment();
  }

  switch (state_) {
    case DegradeState::kNominal:
      if (pressure) {
        transition_locked(DegradeState::kDegraded, signal.window_index,
                          signal.t_sec);
        set_level_locked(1);
      }
      break;

    case DegradeState::kDegraded:
      if (signal.deadline_miss && shed_level_ >= kMaxShedLevel) {
        ++miss_streak_;
        if (miss_streak_ >= kCriticalAfter) {
          transition_locked(DegradeState::kCritical, signal.window_index,
                            signal.t_sec);
          break;
        }
      } else {
        miss_streak_ = 0;
      }
      if (signal.deadline_miss) {
        clean_streak_ = 0;
        ++bad_streak_;
        if (bad_streak_ >= kEscalateAfter && shed_level_ < kMaxShedLevel) {
          set_level_locked(shed_level_ + 1);
          bad_streak_ = 0;
        }
      } else if (clean) {
        bad_streak_ = 0;
        ++clean_streak_;
        if (clean_streak_ >= kRecoverAfter) {
          transition_locked(DegradeState::kRecovering, signal.window_index,
                            signal.t_sec);
        }
      } else {
        // Near miss: neither pressure nor clean — hold position.
        bad_streak_ = 0;
        clean_streak_ = 0;
      }
      break;

    case DegradeState::kRecovering:
      if (signal.deadline_miss) {
        transition_locked(DegradeState::kDegraded, signal.window_index,
                          signal.t_sec);
        break;
      }
      if (clean) {
        ++clean_streak_;
        if (clean_streak_ >= kStepUpAfter) {
          clean_streak_ = 0;
          if (shed_level_ > 0) {
            set_level_locked(shed_level_ - 1);
          } else {
            transition_locked(DegradeState::kNominal, signal.window_index,
                              signal.t_sec);
          }
        }
      } else {
        // Near miss while recovering: capacity is marginal, hold here.
        clean_streak_ = 0;
      }
      break;

    case DegradeState::kCritical:
      break;  // handled above
  }
  summary_.final_state = state_;
}

void DegradationController::force_critical(std::size_t window_index,
                                           double t_sec) {
  std::lock_guard<std::mutex> lock(mutex_);
  transition_locked(DegradeState::kCritical, window_index, t_sec);
  set_level_locked(kMaxShedLevel);
  summary_.final_state = state_;
}

DegradeState DegradationController::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

std::size_t DegradationController::shed_level() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_level_;
}

std::size_t DegradationController::tracked_cap(std::size_t base_top_k) const {
  return std::max<std::size_t>(1, base_top_k >> shed_level());
}

std::size_t DegradationController::stride_multiplier() const {
  return std::size_t{1} << shed_level();
}

std::size_t DegradationController::recall_threshold(
    std::size_t base_h, std::size_t base_top_k) const {
  const std::size_t level = shed_level();
  if (level == 0 || base_top_k == 0) {
    return base_h;
  }
  const std::size_t cap = std::max<std::size_t>(1, base_top_k >> level);
  return std::max<std::size_t>(1, base_h * cap / base_top_k);
}

bool DegradationController::defer_flushes() const {
  return state() != DegradeState::kNominal;
}

const std::vector<DegradeTransition>& DegradationController::transitions()
    const {
  return transitions_;
}

DegradeSummary DegradationController::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DegradeSummary out = summary_;
  out.final_state = state_;
  return out;
}

DegradeCheckpoint DegradationController::checkpoint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DegradeCheckpoint out;
  out.state = state_;
  out.shed_level = shed_level_;
  out.bad_streak = bad_streak_;
  out.clean_streak = clean_streak_;
  out.miss_streak = miss_streak_;
  out.critical_left = critical_left_;
  out.recovered_since_miss = recovered_since_miss_;
  out.summary = summary_;
  out.summary.final_state = state_;
  return out;
}

void DegradationController::restore(const DegradeCheckpoint& saved) {
  std::lock_guard<std::mutex> lock(mutex_);
  require(saved.shed_level <= kMaxShedLevel,
          "DegradationController::restore: saved shed level exceeds "
          "kMaxShedLevel");
  state_ = saved.state;
  shed_level_ = static_cast<std::size_t>(saved.shed_level);
  bad_streak_ = static_cast<std::size_t>(saved.bad_streak);
  clean_streak_ = static_cast<std::size_t>(saved.clean_streak);
  miss_streak_ = static_cast<std::size_t>(saved.miss_streak);
  critical_left_ = static_cast<std::size_t>(saved.critical_left);
  recovered_since_miss_ = saved.recovered_since_miss;
  summary_ = saved.summary;
  summary_.final_state = state_;
  if (state_metric_ != nullptr) {
    state_metric_->set(static_cast<double>(state_));
  }
  if (level_metric_ != nullptr) {
    level_metric_->set(static_cast<double>(shed_level_));
  }
}

}  // namespace emap::robust
