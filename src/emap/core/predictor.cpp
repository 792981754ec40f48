#include "emap/core/predictor.hpp"

#include <algorithm>

#include "emap/common/error.hpp"

namespace emap::core {

AnomalyPredictor::AnomalyPredictor(const EmapConfig& config)
    : config_(config) {
  config_.validate();
}

void AnomalyPredictor::observe(double anomaly_probability, double t_sec) {
  require(anomaly_probability >= 0.0 && anomaly_probability <= 1.0,
          "AnomalyPredictor::observe: probability out of [0, 1]");
  history_.push_back(anomaly_probability);
  trim_history();
  if (!alarmed_) {
    evaluate(t_sec);
    if (alarmed_) {
      alarm_time_sec_ = t_sec;
    }
  }
}

double AnomalyPredictor::latest() const {
  return history_.empty() ? 0.0 : history_.back();
}

double AnomalyPredictor::trend_rise() const {
  const std::size_t window =
      std::min(config_.predict_trend_window, history_.size());
  if (window < 2) {
    return 0.0;
  }
  const std::size_t begin = history_.size() - window;
  const std::size_t half = window / 2;
  double old_mean = 0.0;
  double new_mean = 0.0;
  for (std::size_t i = 0; i < half; ++i) {
    old_mean += history_[begin + i];
  }
  for (std::size_t i = window - half; i < window; ++i) {
    new_mean += history_[begin + i];
  }
  old_mean /= static_cast<double>(half);
  new_mean /= static_cast<double>(half);
  return new_mean - old_mean;
}

void AnomalyPredictor::trim_history() {
  if (history_.size() > config_.predict_trend_window) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(
                                        config_.predict_trend_window));
  }
}

void AnomalyPredictor::evaluate(double) {
  const double p = latest();
  const bool condition =
      p >= config_.predict_high_probability ||
      (p >= config_.predict_base_probability &&
       trend_rise() >= config_.predict_rise_threshold);
  consecutive_ = condition ? consecutive_ + 1 : 0;
  if (consecutive_ >= config_.predict_persistence) {
    alarmed_ = true;
  }
}

void AnomalyPredictor::reset() {
  history_.clear();
  alarmed_ = false;
  alarm_time_sec_ = -1.0;
  consecutive_ = 0;
}

void AnomalyPredictor::restore(std::vector<double> history, bool alarmed,
                               double alarm_time_sec,
                               std::size_t consecutive) {
  for (const double p : history) {
    require(p >= 0.0 && p <= 1.0,
            "AnomalyPredictor::restore: probability out of [0, 1]");
  }
  history_ = std::move(history);
  trim_history();
  alarmed_ = alarmed;
  alarm_time_sec_ = alarm_time_sec;
  consecutive_ = consecutive;
}

}  // namespace emap::core
