// Sim-time stage watchdog.
//
// The degradation controller reacts to *gradual* pressure (burn rate,
// near misses); the watchdog catches the pathological case — a stage so
// slow the window simply never completes on schedule.  A track step whose
// device-model time exceeds N x the iteration budget means the edge fell
// more than N windows behind in one step; shedding half the set will not
// save that, so the watchdog trips and the pipeline forces the controller
// straight into CRITICAL (suspend tracking, serve the last-known P_A).
//
// Stateless beyond a trip counter: the verdict is a pure function of the
// observed duration, so chaos runs replay bit-for-bit.
#pragma once

#include <cstddef>
#include <mutex>

#include "emap/obs/metrics.hpp"

namespace emap::robust {

/// A stage taking longer than kStuckMultiplier x the edge iteration
/// budget (obs::edge_iteration_slo(), the paper's 1 s) is stuck.
inline constexpr double kStuckMultiplier = 5.0;

/// Detects a stuck stage from its SimTime duration.
class StageWatchdog {
 public:
  /// `registry` is borrowed and may be null (summary-only operation).
  explicit StageWatchdog(obs::MetricsRegistry* registry = nullptr);

  /// Records one stage completion; returns true (and counts a trip) when
  /// the duration crossed the stuck threshold.
  bool check_stage(double duration_sec);

  /// Duration above which a stage counts as stuck.
  double threshold_sec() const { return threshold_sec_; }

  std::size_t trips() const;

 private:
  const double threshold_sec_;
  mutable std::mutex mutex_;
  std::size_t trips_ = 0;
  obs::Counter* trips_metric_ = nullptr;
};

}  // namespace emap::robust
