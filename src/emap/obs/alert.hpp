// The built-in alert rules, evaluated against the metrics registry.
//
// The pipeline calls evaluate() once per window, at the window's
// completion instant on the virtual clock.  The engine watches the
// paper's two latency budgets with three fixed rules:
//
//   track_latency_step     ewma  per-window mean of emap_track_step_seconds
//                               (Δsum/Δcount of the histogram): fires when
//                               it rises more than 4 running stddevs
//                               (alpha 0.1, 30 warm-up windows, floor
//                               1e-6 s) above its exponentially weighted
//                               mean, held for 3 s
//   edge_iteration_burn    burn  emap_slo_burn_rate{slo="edge_iteration"}
//                               above obs::kBurnRateLimit, held for 5 s
//   initial_response_burn  burn  emap_slo_burn_rate{slo="initial_response"}
//                               above obs::kBurnRateLimit, held for 5 s
//
// The hold is a for-duration debounce: a breach must hold continuously
// for that long on the virtual clock before the rule transitions to
// firing, and one clean evaluation resolves it.  Transitions — never
// steady states — stamp a span and bump `emap_alerts_*` metrics, and the
// pipeline writes each onto the decision record of the window whose
// evaluation made it, so a latency regression mid-soak leaves a
// correlated trace.
//
// Everything is driven by the virtual clock through evaluate(); with the
// same seeded run the same transitions happen at the same instants.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "emap/obs/metrics.hpp"

namespace emap::obs {

class Tracer;

enum class AlertState { kInactive, kPending, kFiring };

const char* alert_state_name(AlertState state);

/// One firing or resolved transition (steady states are not recorded).
struct AlertTransition {
  std::string rule;
  std::string series;
  double t_sec = 0.0;
  bool firing = false;   ///< true = fired, false = resolved
  double value = 0.0;    ///< observed value at the transition
  double threshold = 0.0;///< effective limit at the transition
  std::uint64_t trace_id = 0;
};

/// Live per-rule evaluation state (exposed for tests and the report tool).
struct AlertRuleStatus {
  AlertState state = AlertState::kInactive;
  double pending_since_sec = 0.0;
  double last_value = 0.0;
  bool last_breached = false;
  bool ever_evaluated = false;
  std::uint64_t fired = 0;
  std::uint64_t resolved = 0;
  // EWMA runtime (track_latency_step only).
  double ewma_mean = 0.0;
  double ewma_var = 0.0;
  std::size_t ewma_samples = 0;
};

/// Evaluates the built-in rules once per window.
class AlertEngine {
 public:
  /// Optional side-effect sinks; any may be null.  All borrowed.
  struct Hooks {
    MetricsRegistry* registry = nullptr;  ///< emap_alerts_* metrics
    Tracer* tracer = nullptr;             ///< alert spans
  };

  /// Rules in the built-in table, indexed as status() is:
  /// track_latency_step, edge_iteration_burn, initial_response_burn.
  static constexpr std::size_t kRuleCount = 3;

  AlertEngine() : AlertEngine(Hooks()) {}
  explicit AlertEngine(Hooks hooks);

  /// Evaluates every rule against the registry's current values at
  /// virtual time `t_sec`.  A rule whose series is not registered yet is
  /// skipped.  `trace_id` attributes any transitions to the causal chain
  /// being processed.  Returns the number of transitions this evaluation
  /// produced.
  std::size_t evaluate(const MetricsRegistry& registry, double t_sec,
                       std::uint64_t trace_id = 0);

  const AlertRuleStatus& status(std::size_t rule_index) const {
    return status_[rule_index];
  }
  const std::vector<AlertTransition>& transitions() const {
    return transitions_;
  }
  /// Rules currently in the firing state.
  std::size_t firing_count() const;
  /// Whether the named rule ever fired.
  bool ever_fired(const std::string& rule_name) const;
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  struct RuleEval {
    double value = 0.0;
    double threshold = 0.0;
    bool breached = false;
  };
  /// The histogram mean's history: sum and count at the previous
  /// evaluation, and the last per-interval mean (carried through empty
  /// intervals).
  struct MeanCursor {
    double sum = 0.0;
    std::uint64_t count = 0;
    double last_mean = 0.0;
  };
  std::optional<double> read(std::size_t rule_index,
                             const std::vector<const MetricEntry*>& entries);
  RuleEval evaluate_rule(std::size_t rule_index, double value);
  void transition(std::size_t rule_index, double t_sec, bool firing,
                  const RuleEval& eval, std::uint64_t trace_id);

  std::array<AlertRuleStatus, kRuleCount> status_{};
  MeanCursor mean_cursor_;
  std::vector<AlertTransition> transitions_;
  Hooks hooks_;
  std::uint64_t evaluations_ = 0;
};

/// Canonical series key of a registry entry: `name{k="v",...}` with the
/// labels in registry (sorted) order, `name` alone when label-free.
std::string series_key_for(const std::string& name, const Labels& labels);

}  // namespace emap::obs
