#include "emap/obs/slo.hpp"

#include <limits>

#include "emap/common/error.hpp"

namespace emap::obs {

SloSpec edge_iteration_slo() {
  SloSpec spec;
  spec.name = "edge_iteration";
  spec.budget_sec = 1.0;  // one 256-sample window at 256 Hz
  return spec;
}

SloSpec initial_response_slo() {
  SloSpec spec;
  spec.name = "initial_response";
  spec.budget_sec = 3.0;  // Eq. 4: Delta_EC + Delta_CS + Delta_CE
  return spec;
}

SloMonitor::SloMonitor(SloSpec spec, MetricsRegistry* registry)
    : spec_(std::move(spec)),
      latency_(Histogram::default_latency_bounds()),
      recent_miss_(spec_.burn_window > 0 ? spec_.burn_window : 1, false) {
  if (registry != nullptr) {
    const Labels labels = {{"slo", spec_.name}};
    observations_metric_ =
        &registry->counter("emap_slo_observations_total", labels,
                           "Latency observations classified against the SLO");
    miss_metric_ =
        &registry->counter("emap_slo_deadline_miss_total", labels,
                           "Observations that exceeded the SLO budget");
    near_miss_metric_ = &registry->counter(
        "emap_slo_near_miss_total", labels,
        "Observations within budget but above the near-miss band");
    burn_metric_ =
        &registry->gauge("emap_slo_burn_rate", labels,
                         "Rolling miss rate over the error budget (1=at "
                         "target, >1=violating)");
    budget_metric_ = &registry->gauge("emap_slo_budget_seconds", labels,
                                      "SLO latency budget");
    budget_metric_->set(spec_.budget_sec);
    latency_metric_ = &registry->histogram(
        "emap_slo_latency_seconds", labels,
        Histogram::default_latency_bounds(),
        "Latency observations measured against the SLO");
  }
}

void SloMonitor::observe(double latency_sec) {
  observations_ += 1;
  latency_.observe(latency_sec);
  if (latency_sec > max_latency_sec_) {
    max_latency_sec_ = latency_sec;
  }
  const bool miss = latency_sec > spec_.budget_sec;
  const bool near =
      !miss && latency_sec > spec_.near_miss_fraction * spec_.budget_sec;
  if (miss) {
    deadline_misses_ += 1;
  }
  if (near) {
    near_misses_ += 1;
  }

  // Rolling window: replace the oldest flag with this one.
  if (recent_count_ == recent_miss_.size()) {
    recent_misses_ -= recent_miss_[recent_next_] ? 1u : 0u;
  } else {
    recent_count_ += 1;
  }
  recent_miss_[recent_next_] = miss;
  recent_misses_ += miss ? 1u : 0u;
  recent_next_ = (recent_next_ + 1) % recent_miss_.size();

  if (observations_metric_ != nullptr) {
    observations_metric_->increment();
    if (miss) {
      miss_metric_->increment();
    }
    if (near) {
      near_miss_metric_->increment();
    }
    latency_metric_->observe(latency_sec);
    burn_metric_->set(burn_rate());
  }
}

double SloMonitor::burn_rate() const {
  if (recent_count_ == 0) {
    return 0.0;
  }
  const double error_budget = 1.0 - spec_.target;
  const double rolling_miss_rate =
      static_cast<double>(recent_misses_) / static_cast<double>(recent_count_);
  if (error_budget <= 0.0) {
    // target == 1: any miss is an infinite burn; report misses directly
    // scaled so healthy() still reads "no miss in the window".
    return rolling_miss_rate > 0.0 ? std::numeric_limits<double>::infinity()
                                   : 0.0;
  }
  return rolling_miss_rate / error_budget;
}

SloMonitorState SloMonitor::save_state() const {
  SloMonitorState state;
  state.observations = observations_;
  state.deadline_misses = deadline_misses_;
  state.near_misses = near_misses_;
  state.max_latency_sec = max_latency_sec_;
  state.recent_miss.reserve(recent_miss_.size());
  for (const bool miss : recent_miss_) {
    state.recent_miss.push_back(miss ? 1u : 0u);
  }
  state.recent_next = recent_next_;
  state.recent_count = recent_count_;
  state.recent_misses = recent_misses_;
  return state;
}

void SloMonitor::restore_state(const SloMonitorState& state) {
  require(state.recent_miss.size() == recent_miss_.size() &&
              state.recent_next < recent_miss_.size() &&
              state.recent_count <= recent_miss_.size() &&
              state.recent_misses <= state.recent_count,
          "SloMonitor::restore_state: state does not match this monitor");
  observations_ = state.observations;
  deadline_misses_ = state.deadline_misses;
  near_misses_ = state.near_misses;
  max_latency_sec_ = state.max_latency_sec;
  for (std::size_t i = 0; i < recent_miss_.size(); ++i) {
    recent_miss_[i] = state.recent_miss[i] != 0;
  }
  recent_next_ = static_cast<std::size_t>(state.recent_next);
  recent_count_ = static_cast<std::size_t>(state.recent_count);
  recent_misses_ = static_cast<std::size_t>(state.recent_misses);
  if (burn_metric_ != nullptr) {
    burn_metric_->set(burn_rate());
  }
}

SloSummary SloMonitor::summary() const {
  SloSummary out;
  out.name = spec_.name;
  out.budget_sec = spec_.budget_sec;
  out.target = spec_.target;
  out.observations = observations_;
  out.deadline_misses = deadline_misses_;
  out.near_misses = near_misses_;
  out.miss_rate = observations_ > 0 ? static_cast<double>(deadline_misses_) /
                                          static_cast<double>(observations_)
                                    : 0.0;
  out.burn_rate = burn_rate();
  out.max_latency_sec = max_latency_sec_;
  out.p50_latency_sec = latency_.quantile(0.50);
  out.p99_latency_sec = latency_.quantile(0.99);
  return out;
}

}  // namespace emap::obs
