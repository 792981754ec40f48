#include "emap/core/tracker.hpp"

#include <algorithm>
#include <chrono>

#include "emap/common/error.hpp"
#include "emap/dsp/area.hpp"
#include "emap/dsp/simd.hpp"
#include "emap/obs/profiler.hpp"

namespace emap::core {

EdgeTracker::EdgeTracker(const EmapConfig& config) : config_(config) {
  config_.validate();
}

void EdgeTracker::load(std::vector<TrackedSignal> correlation_set) {
  tracked_ = std::move(correlation_set);
  loaded_ = true;
  steps_since_load_ = 0;
  if (metrics_.staleness != nullptr) {
    metrics_.staleness->set(0.0);
  }
}

void EdgeTracker::load_from_search(const SearchResult& result,
                                   const mdb::MdbStore& store) {
  std::vector<TrackedSignal> set;
  set.reserve(result.matches.size());
  for (const auto& match : result.matches) {
    TrackedSignal signal;
    signal.set_id = match.set_id;
    signal.omega = match.omega;
    signal.beta = match.beta;
    signal.anomalous = match.anomalous;
    signal.class_tag = match.class_tag;
    const auto& samples = store.at(match.store_index).samples;
    signal.samples.assign(samples.begin(), samples.end());  // f32 -> f64
    set.push_back(std::move(signal));
  }
  load(std::move(set));
}

void EdgeTracker::load_from_message(
    const net::CorrelationSetMessage& message) {
  std::vector<TrackedSignal> set;
  set.reserve(message.entries.size());
  for (const auto& entry : message.entries) {
    TrackedSignal signal;
    signal.set_id = entry.set_id;
    signal.omega = static_cast<double>(entry.omega);
    signal.beta = entry.beta;
    signal.anomalous = entry.anomalous != 0;
    signal.class_tag = entry.class_tag;
    signal.samples = entry.samples;
    set.push_back(std::move(signal));
  }
  load(std::move(set));
}

void EdgeTracker::restore(std::vector<TrackedSignal> correlation_set,
                          bool loaded, std::size_t steps_since_load) {
  tracked_ = std::move(correlation_set);
  loaded_ = loaded;
  steps_since_load_ = steps_since_load;
  if (metrics_.staleness != nullptr) {
    metrics_.staleness->set(static_cast<double>(steps_since_load_));
  }
  if (metrics_.set_size != nullptr) {
    metrics_.set_size->set(static_cast<double>(tracked_.size()));
  }
}

std::size_t EdgeTracker::shed_to(std::size_t cap) {
  if (cap == 0 || tracked_.size() <= cap) {
    return 0;
  }
  const std::size_t shed = tracked_.size() - cap;
  tracked_.resize(cap);
  if (metrics_.set_size != nullptr) {
    metrics_.set_size->set(static_cast<double>(tracked_.size()));
  }
  return shed;
}

void EdgeTracker::set_stride_multiplier(std::size_t multiplier) {
  require(multiplier >= 1,
          "EdgeTracker::set_stride_multiplier: multiplier must be >= 1");
  stride_multiplier_ = multiplier;
}

void EdgeTracker::set_recall_threshold(std::size_t threshold) {
  recall_threshold_override_ = threshold;
}

void EdgeTracker::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = TrackMetrics{};
    return;
  }
  metrics_.steps = &registry->counter("emap_tracker_steps_total", {},
                                      "Algorithm 2 iterations executed");
  metrics_.removed_dissimilar = &registry->counter(
      "emap_tracker_removed_total", {{"reason", "dissimilar"}},
      "Tracked signals removed per cause");
  metrics_.removed_exhausted = &registry->counter(
      "emap_tracker_removed_total", {{"reason", "exhausted"}},
      "Tracked signals removed per cause");
  metrics_.abs_ops = &registry->counter(
      "emap_tracker_abs_ops_total", {},
      "Early-exit ABS operations spent across all steps");
  metrics_.set_size = &registry->gauge(
      "emap_tracker_set_size", {}, "Signals tracked after the latest step");
  metrics_.staleness = &registry->gauge(
      "emap_tracker_staleness", {},
      "Tracking steps run since the last correlation-set load");
  metrics_.pa = &registry->histogram(
      "emap_tracker_pa", {}, obs::Histogram::linear_bounds(0.0, 1.0, 20),
      "Anomaly probability P_A per tracked step (Eq. 5)");
}

double EdgeTracker::anomaly_probability() const {
  if (tracked_.empty()) {
    return 0.0;
  }
  const auto anomalous = static_cast<double>(
      std::count_if(tracked_.begin(), tracked_.end(),
                    [](const TrackedSignal& s) { return s.anomalous; }));
  return anomalous / static_cast<double>(tracked_.size());
}

TrackStepResult EdgeTracker::step(std::span<const double> filtered_window) {
  TrackStepResult result;
  if (!loaded_) {
    return result;
  }
  require(filtered_window.size() == config_.window_length,
          "EdgeTracker::step: window length mismatch");
  // Work = early-exit ABS ops, the unit the edge device model charges for.
  // One stage-path literal per dispatch arm (ProfileScope keys by literal
  // identity) so flamegraphs separate scalar and AVX2 tracking time.
  obs::ProfileScope profile_scope(
      dsp::simd::active_level() == dsp::simd::Level::kAvx2
          ? "track_step[impl=avx2]"
          : "track_step[impl=scalar]");
  const auto start_time = std::chrono::steady_clock::now();

  const std::size_t window = config_.window_length;
  result.tracked_before = tracked_.size();
  ++steps_since_load_;

  std::vector<TrackedSignal> survivors;
  survivors.reserve(tracked_.size());
  for (auto& signal : tracked_) {
    if (signal.samples.size() < window ||
        signal.beta > signal.samples.size() - window) {
      ++result.removed_exhausted;
      continue;
    }
    const std::span<const double> samples(signal.samples);
    // Forward re-match scan from the current offset (Algorithm 2's
    // while-loop over W.β).  The range limit always derives from the
    // configured stride; a widened stride (degraded mode) probes the same
    // range with proportionally fewer area evaluations.
    const std::size_t stride =
        config_.track_scan_stride * stride_multiplier_;
    const std::size_t limit =
        std::min(signal.samples.size() - window,
                 signal.beta + config_.track_scan_stride *
                                   (config_.track_max_scan_offsets - 1));
    bool matched = false;
    for (std::size_t offset = signal.beta; offset <= limit;
         offset += stride) {
      const double area = dsp::area_between_capped_counted(
          filtered_window, samples.subspan(offset, window),
          config_.delta_area, result.abs_ops);
      if (area <= config_.delta_area) {
        signal.beta = offset;
        matched = true;
        break;
      }
    }
    if (matched) {
      survivors.push_back(std::move(signal));
    } else {
      ++result.removed_dissimilar;
    }
  }
  tracked_ = std::move(survivors);

  profile_scope.add_work(result.abs_ops);
  result.tracked_after = tracked_.size();
  result.anomaly_probability = anomaly_probability();
  const std::size_t recall_threshold = recall_threshold_override_ > 0
                                           ? recall_threshold_override_
                                           : config_.tracking_threshold_h;
  result.cloud_call_needed = tracked_.size() < recall_threshold;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  if (metrics_.steps != nullptr) {
    metrics_.steps->increment();
    metrics_.removed_dissimilar->increment(result.removed_dissimilar);
    metrics_.removed_exhausted->increment(result.removed_exhausted);
    metrics_.abs_ops->increment(result.abs_ops);
    metrics_.set_size->set(static_cast<double>(result.tracked_after));
    metrics_.staleness->set(static_cast<double>(steps_since_load_));
    metrics_.pa->observe(result.anomaly_probability);
  }
  return result;
}

}  // namespace emap::core
