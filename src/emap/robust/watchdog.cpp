#include "emap/robust/watchdog.hpp"

#include "emap/obs/slo.hpp"

namespace emap::robust {

StageWatchdog::StageWatchdog(obs::MetricsRegistry* registry)
    : threshold_sec_(obs::edge_iteration_slo().budget_sec * kStuckMultiplier) {
  if (registry != nullptr) {
    trips_metric_ = &registry->counter(
        "emap_robust_watchdog_trips_total", {},
        "Stages whose duration crossed the stuck threshold (forces "
        "CRITICAL)");
  }
}

bool StageWatchdog::check_stage(double duration_sec) {
  if (duration_sec <= threshold_sec()) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++trips_;
  }
  if (trips_metric_ != nullptr) {
    trips_metric_->increment();
  }
  return true;
}

std::size_t StageWatchdog::trips() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trips_;
}

}  // namespace emap::robust
