// Real-time SLO monitoring for the paper's latency budgets.
//
// The EMAP deployment story stands on two budgets: the edge iteration must
// finish inside its 1 s window (Section V's "lightweight" tracking), and
// the initial cloud response Δ_initial must land within ≈ 3 s (Eq. 4) or
// the monitor is blind during exactly the prodrome it exists to catch.
// SloMonitor turns each budget into an explicit objective: every
// observation lands in a latency histogram and is classified as ok /
// near-miss / deadline-miss, and a rolling window of recent observations
// yields a burn rate — how fast the error budget (1 - target) is being
// consumed, where burn > 1 means "at this rate the SLO will be violated".
//
// All latencies here are SimTime (device-model + channel-model seconds),
// not wall clock, so the verdicts are deterministic and comparable across
// machines.  When a MetricsRegistry is attached the monitor also surfaces
// `emap_slo_*` families for the Prometheus/JSONL exporters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "emap/obs/metrics.hpp"

namespace emap::obs {

/// One service-level objective over a latency stream.
struct SloSpec {
  std::string name;        ///< label value, e.g. "edge_iteration"
  double budget_sec = 1.0; ///< deadline: observations above this miss
  /// Observations above near_miss_fraction * budget_sec (but within
  /// budget) count as near misses — the early-warning band.
  double near_miss_fraction = 0.8;
  /// Fraction of observations that must meet the deadline.  The error
  /// budget is 1 - target; the burn rate is measured against it.
  double target = 0.999;
  /// Observations in the rolling burn-rate window.
  std::size_t burn_window = 60;
};

/// Burn rate above which an SLO is burning: 1.0 consumes the error budget
/// exactly as fast as the target allows.  SloMonitor::healthy(), the
/// degradation controller's entry pressure and the built-in burn alerts
/// all read this one limit.
inline constexpr double kBurnRateLimit = 1.0;

/// The paper's two budgets (Section V / Eq. 4).
SloSpec edge_iteration_slo();   ///< track step < 1 s SimTime
SloSpec initial_response_slo(); ///< Δ_initial ≤ 3 s SimTime

/// Snapshot of one monitor, embeddable in RunResult and reports.
struct SloSummary {
  std::string name;
  double budget_sec = 0.0;
  double target = 0.0;
  std::uint64_t observations = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t near_misses = 0;
  double miss_rate = 0.0;    ///< deadline_misses / observations
  double burn_rate = 0.0;    ///< rolling miss rate / error budget
  double max_latency_sec = 0.0;
  double p50_latency_sec = 0.0;
  double p99_latency_sec = 0.0;
};

/// Serializable monitor state (checkpoint support).  Carries the verdict
/// counters and the rolling miss ring — everything burn_rate() and the
/// degradation controller read — but NOT the latency histogram: a resumed
/// monitor's p50/p99 cover post-resume observations only (documented in
/// docs/robustness.md, "Crash recovery").
struct SloMonitorState {
  std::uint64_t observations = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t near_misses = 0;
  double max_latency_sec = 0.0;
  std::vector<std::uint8_t> recent_miss;  ///< ring, 1 = miss
  std::uint64_t recent_next = 0;
  std::uint64_t recent_count = 0;
  std::uint64_t recent_misses = 0;
};

/// Tracks one SLO over a latency stream.
///
/// Not internally synchronized: observations come from the single-threaded
/// pipeline loop.  The registry-surfaced metrics are the usual lock-free
/// instruments and may be scraped concurrently.
class SloMonitor {
 public:
  /// `registry` is borrowed and may be null (summary-only monitoring).
  explicit SloMonitor(SloSpec spec, MetricsRegistry* registry = nullptr);

  /// Classifies and records one latency observation (seconds).
  void observe(double latency_sec);

  const SloSpec& spec() const { return spec_; }
  std::uint64_t observations() const { return observations_; }
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  std::uint64_t near_misses() const { return near_misses_; }

  /// Miss rate over the rolling window divided by the error budget
  /// (1 - target); 0 before any observation.  Burn 1.0 = consuming the
  /// budget exactly as fast as the target allows.
  double burn_rate() const;

  /// Burn rate <= kBurnRateLimit (no observations counts as healthy).
  bool healthy() const { return burn_rate() <= kBurnRateLimit; }

  SloSummary summary() const;

  /// Captures the restorable state (counters + miss ring; no histogram).
  SloMonitorState save_state() const;

  /// Restores a saved state.  Throws InvalidArgument when the saved ring
  /// does not match this monitor's burn window.
  void restore_state(const SloMonitorState& state);

 private:
  SloSpec spec_;
  std::uint64_t observations_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t near_misses_ = 0;
  double max_latency_sec_ = 0.0;
  Histogram latency_;

  // Rolling window of miss flags (ring buffer of the last burn_window
  // observations).
  std::vector<bool> recent_miss_;
  std::size_t recent_next_ = 0;
  std::size_t recent_count_ = 0;
  std::size_t recent_misses_ = 0;

  // Registry handles (null when detached).
  Counter* observations_metric_ = nullptr;
  Counter* miss_metric_ = nullptr;
  Counter* near_miss_metric_ = nullptr;
  Gauge* burn_metric_ = nullptr;
  Gauge* budget_metric_ = nullptr;
  Histogram* latency_metric_ = nullptr;
};

}  // namespace emap::obs
