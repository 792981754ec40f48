// Declarative alert rules evaluated against the metrics registry.
//
// The pipeline calls evaluate() once per window, at the window's
// completion instant on the virtual clock.  Each rule names one series of
// the registry (`name{label="value",...}`, histograms with a `:count`,
// `:sum`, `:mean` or `:p95` suffix).  Four rule kinds cover the
// monitoring idioms the soak tests need:
//
//   threshold — latest value of a series compared against a constant
//   rate      — counter increase per second over a trailing window
//   ewma      — deviation of the latest value from an exponentially
//               weighted running mean, in units of the running stddev
//               (a step change in a latency series trips this)
//   burn      — threshold on an SLO's burn-rate gauge series
//               (`emap_slo_burn_rate{slo="..."}`)
//
// Rules carry a for-duration debounce: a breach must hold continuously
// for `for_sec` of virtual time before the rule transitions to firing,
// and one clean evaluation resolves it.  Transitions — never steady
// states — stamp a span, bump `emap_alerts_*` metrics, log a flight
// event, and (on firing) trigger a flight-recorder dump, so a latency
// regression mid-soak leaves a correlated trace.
//
// Everything is driven by the virtual clock through evaluate(); with the
// same seeded run the same transitions happen at the same instants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "emap/obs/metrics.hpp"

namespace emap::obs {

class FlightRecorder;
class Tracer;

enum class AlertRuleKind { kThreshold, kRate, kEwma, kBurnRate };
enum class AlertOp { kGt, kGe, kLt, kLe };

const char* alert_rule_kind_name(AlertRuleKind kind);
const char* alert_op_name(AlertOp op);

/// One declarative rule.  Text form (see parse_alert_rules):
///   rule <name> threshold series=<key> op=gt value=1.0 for=5
///   rule <name> rate      series=<key> window=60 op=gt value=0.5 for=10
///   rule <name> ewma      series=<key> alpha=0.1 sigma=4 warmup=30
///                         min_delta=0 for=3   (one line in the file)
///   rule <name> burn      slo=edge_iteration value=1.0 for=5
struct AlertRule {
  std::string name;
  AlertRuleKind kind = AlertRuleKind::kThreshold;
  /// Series key the rule watches (burn rules fill this from `slo=`).
  std::string series;
  AlertOp op = AlertOp::kGt;
  double value = 0.0;       ///< threshold / burn-rate limit
  double window_sec = 60.0; ///< rate: trailing window
  double alpha = 0.1;       ///< ewma: smoothing factor in (0, 1]
  double sigma = 4.0;       ///< ewma: deviation limit in stddevs
  std::size_t warmup = 30;  ///< ewma: samples before deviations count
  double min_delta = 0.0;   ///< ewma: absolute deviation floor
  double for_sec = 0.0;     ///< debounce: breach must hold this long

  void validate() const;
};

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
  // EWMA runtime (ewma rules only).
  double ewma_mean = 0.0;
  double ewma_var = 0.0;
  std::size_t ewma_samples = 0;
};

/// Evaluates a fixed rule set once per window.
class AlertEngine {
 public:
  /// Optional side-effect sinks; any may be null.  All borrowed.
  struct Hooks {
    MetricsRegistry* registry = nullptr;  ///< emap_alerts_* metrics
    Tracer* tracer = nullptr;             ///< alert spans
    FlightRecorder* flight = nullptr;     ///< kAlert events + firing dumps
  };

  explicit AlertEngine(std::vector<AlertRule> rules)
      : AlertEngine(std::move(rules), Hooks()) {}
  AlertEngine(std::vector<AlertRule> rules, Hooks hooks);

  /// Evaluates every rule against the registry's current values at
  /// virtual time `t_sec`.  All watched values are read before any rule
  /// transitions, so a rule watching `emap_alerts_*` sees the previous
  /// pass's counts.  A rule whose series is not registered yet is
  /// skipped.  `trace_id` attributes any transitions to the causal chain
  /// being processed.  Returns the number of transitions this evaluation
  /// produced.
  std::size_t evaluate(const MetricsRegistry& registry, double t_sec,
                       std::uint64_t trace_id = 0);

  const std::vector<AlertRule>& rules() const { return rules_; }
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

  /// One JSONL line per transition:
  ///   {"rule":...,"series":...,"t_sec":...,"state":"firing"|"resolved",
  ///    "value":...,"threshold":...,"trace_id":...}
  std::string to_jsonl() const;
  /// Throws IoError when the file cannot be opened or written.
  void write_jsonl(const std::filesystem::path& path) const;

 private:
  struct RuleEval {
    double value = 0.0;
    double threshold = 0.0;
    bool breached = false;
  };
  /// Per-rule history the derived values need.
  struct Cursor {
    /// `:mean`: the histogram's sum and count at the previous evaluation,
    /// and the last per-interval mean (carried through empty intervals).
    double sum = 0.0;
    std::uint64_t count = 0;
    double last_mean = 0.0;
    /// rate: (t_sec, value) points inside the trailing window.
    std::deque<std::pair<double, double>> points;
  };
  std::optional<double> read(std::size_t rule_index,
                             const std::vector<const MetricEntry*>& entries);
  RuleEval evaluate_rule(std::size_t rule_index, double t_sec, double value);
  void transition(std::size_t rule_index, double t_sec, bool firing,
                  const RuleEval& eval, std::uint64_t trace_id);

  std::vector<AlertRule> rules_;
  std::vector<AlertRuleStatus> status_;
  std::vector<Cursor> cursors_;
  std::vector<AlertTransition> transitions_;
  Hooks hooks_;
  std::uint64_t evaluations_ = 0;
};

/// Canonical series key of a registry entry: `name{k="v",...}` with the
/// labels in registry (sorted) order, `name` alone when label-free.
std::string series_key_for(const std::string& name, const Labels& labels);

/// The burn-rate gauge series key of one SLO (matches SloMonitor's
/// registration: `emap_slo_burn_rate{slo="<name>"}`).
std::string burn_rate_series_key(const std::string& slo_name);

/// Parses the rule text format (one `rule ...` statement per line, `#`
/// comments and blank lines ignored; see AlertRule).  Every number must
/// parse as a whole token: `value`, `window`, `alpha`, `sigma`,
/// `min_delta` and `for` finite, `warmup` a non-negative integer.  On
/// malformed input
/// returns the rules parsed so far and sets *error to a one-line
/// diagnostic naming the line; *error is cleared on success.
std::vector<AlertRule> parse_alert_rules(const std::string& text,
                                         std::string* error = nullptr);

/// parse_alert_rules over a file's contents; missing file is an error.
std::vector<AlertRule> load_alert_rules(const std::filesystem::path& path,
                                        std::string* error = nullptr);

/// The rules emapctl installs when --alerts-out is given without a rule
/// file: EWMA-deviation on the edge window-latency mean and
/// burn-rate watches on both paper SLOs.
std::vector<AlertRule> default_alert_rules();

}  // namespace emap::obs
