// Anomaly prediction from the P_A time series.
//
// "Each time-step of the input signal is compared with the set of
// correlated signals to estimate the anomaly probability, which if
// increasing is classified as an anomaly" (paper Section VI-B).  The
// predictor watches the P_A sequence produced by the edge tracker and
// raises an alarm when the probability is high outright or rising from a
// non-trivial floor.
#pragma once

#include <cstddef>
#include <vector>

#include "emap/core/config.hpp"

namespace emap::core {

/// Trend-based anomaly alarm over the P_A sequence.
class AnomalyPredictor {
 public:
  explicit AnomalyPredictor(const EmapConfig& config);

  /// Feeds the P_A estimate of one tracking iteration at time `t_sec`.
  void observe(double anomaly_probability, double t_sec);

  /// True once an alarm has been raised (alarms latch).
  bool anomaly_predicted() const { return alarmed_; }

  /// Time of the first alarm; negative when no alarm was raised.
  double first_alarm_sec() const { return alarm_time_sec_; }

  /// Latest observed P_A (0 before any observation).
  double latest() const;

  /// Rise of P_A over the trend window: mean of the newest half minus
  /// mean of the oldest half of the last `predict_trend_window` samples.
  double trend_rise() const;

  /// The newest `predict_trend_window` observations, oldest first: all
  /// that latest() and trend_rise() read, so the state stays O(1) per
  /// session.
  const std::vector<double>& history() const { return history_; }

  /// Clears observations and the alarm latch.
  void reset();

  /// Reinstates a previously captured P_A history (only its newest
  /// `predict_trend_window` entries are kept), alarm latch, and
  /// persistence streak (checkpoint support).
  void restore(std::vector<double> history, bool alarmed,
               double alarm_time_sec, std::size_t consecutive);

  /// Consecutive alarm-condition hits so far (checkpoint support).
  std::size_t consecutive_hits() const { return consecutive_; }

 private:
  void evaluate(double t_sec);
  void trim_history();

  EmapConfig config_;
  std::vector<double> history_;
  bool alarmed_ = false;
  double alarm_time_sec_ = -1.0;
  std::size_t consecutive_ = 0;  ///< consecutive alarm-condition hits
};

}  // namespace emap::core
