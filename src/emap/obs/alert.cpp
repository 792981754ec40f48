#include "emap/obs/alert.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "emap/obs/slo.hpp"
#include "emap/obs/span.hpp"

namespace emap::obs {
namespace {

enum class RuleKind { kEwma, kBurn };

/// One built-in rule.  `series` is the watched key: a histogram's
/// `name:mean` (ewma) or a gauge's `name{labels}` (burn).
struct Rule {
  const char* name;
  RuleKind kind;
  const char* series;
  double for_sec;  ///< debounce: the breach must hold this long
};

constexpr std::array<Rule, AlertEngine::kRuleCount> kRules = {{
    {"track_latency_step", RuleKind::kEwma, "emap_track_step_seconds:mean",
     3.0},
    {"edge_iteration_burn", RuleKind::kBurn,
     "emap_slo_burn_rate{slo=\"edge_iteration\"}", 5.0},
    {"initial_response_burn", RuleKind::kBurn,
     "emap_slo_burn_rate{slo=\"initial_response\"}", 5.0},
}};

// track_latency_step's EWMA.
constexpr double kEwmaAlpha = 0.1;       ///< smoothing factor
constexpr double kEwmaSigma = 4.0;       ///< deviation limit in stddevs
constexpr std::size_t kEwmaWarmup = 30;  ///< samples before deviations count
constexpr double kEwmaMinDelta = 1e-6;   ///< absolute deviation floor

}  // namespace

const char* alert_state_name(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
  }
  return "unknown";
}

AlertEngine::AlertEngine(Hooks hooks) : hooks_(hooks) {}

std::optional<double> AlertEngine::read(
    std::size_t rule_index, const std::vector<const MetricEntry*>& entries) {
  const Rule& rule = kRules[rule_index];
  const std::string_view key = rule.series;
  for (const MetricEntry* entry : entries) {
    if (!key.starts_with(entry->name)) {
      continue;
    }
    const std::string base = series_key_for(entry->name, entry->labels);
    if (rule.kind == RuleKind::kBurn && entry->kind == MetricKind::kGauge &&
        key == base) {
      return entry->gauge->value();
    }
    if (rule.kind != RuleKind::kEwma ||
        entry->kind != MetricKind::kHistogram || key != base + ":mean") {
      continue;
    }
    // Per-interval mean: Δsum/Δcount since the previous evaluation; an
    // interval with no observations carries the last mean forward.
    const double sum = entry->histogram->sum();
    const std::uint64_t count = entry->histogram->count();
    const std::uint64_t delta_count = count - mean_cursor_.count;
    if (delta_count > 0) {
      mean_cursor_.last_mean =
          (sum - mean_cursor_.sum) / static_cast<double>(delta_count);
    }
    mean_cursor_.sum = sum;
    mean_cursor_.count = count;
    return mean_cursor_.last_mean;
  }
  return std::nullopt;
}

AlertEngine::RuleEval AlertEngine::evaluate_rule(std::size_t rule_index,
                                                 double value) {
  AlertRuleStatus& status = status_[rule_index];
  RuleEval eval;
  eval.value = value;
  if (kRules[rule_index].kind == RuleKind::kBurn) {
    eval.threshold = kBurnRateLimit;
    eval.breached = value > kBurnRateLimit;
    return eval;
  }
  if (status.ewma_samples == 0) {
    status.ewma_mean = value;
    status.ewma_var = 0.0;
    status.ewma_samples = 1;
    return eval;
  }
  const double deviation = value - status.ewma_mean;
  eval.threshold =
      std::max(kEwmaSigma * std::sqrt(status.ewma_var), kEwmaMinDelta);
  // Upward deviations only: a faster track step is no page.
  eval.breached =
      status.ewma_samples >= kEwmaWarmup && deviation > eval.threshold;
  // Mean adapts to every sample so a sustained level shift becomes the new
  // normal (and the alert resolves); variance learns only from in-band
  // samples so one outburst cannot widen the band and mask itself.
  status.ewma_mean += kEwmaAlpha * deviation;
  if (!eval.breached) {
    status.ewma_var = (1.0 - kEwmaAlpha) *
                      (status.ewma_var + kEwmaAlpha * deviation * deviation);
  }
  ++status.ewma_samples;
  return eval;
}

void AlertEngine::transition(std::size_t rule_index, double t_sec,
                             bool firing, const RuleEval& eval,
                             std::uint64_t trace_id) {
  const Rule& rule = kRules[rule_index];
  AlertRuleStatus& status = status_[rule_index];
  AlertTransition record;
  record.rule = rule.name;
  record.firing = firing;
  record.value = eval.value;
  record.threshold = eval.threshold;
  transitions_.push_back(record);
  if (firing) {
    ++status.fired;
  } else {
    ++status.resolved;
  }
  if (hooks_.registry != nullptr) {
    hooks_.registry
        ->counter(firing ? "emap_alerts_fired_total"
                         : "emap_alerts_resolved_total",
                  {{"rule", rule.name}},
                  firing ? "Alert firing transitions"
                         : "Alert resolved transitions")
        .increment();
    // emap_alerts_firing is set once per evaluate() pass, after every
    // rule's state has settled.
  }
  if (hooks_.tracer != nullptr) {
    hooks_.tracer->record_sim(
        std::string("alert:") + rule.name + (firing ? ":fired" : ":resolved"),
        "alert", t_sec, t_sec, 0, trace_id);
  }
}

std::size_t AlertEngine::evaluate(const MetricsRegistry& registry,
                                  double t_sec, std::uint64_t trace_id) {
  ++evaluations_;
  const std::vector<const MetricEntry*> entries = registry.entries();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const std::optional<double> value = read(i, entries);
    if (!value.has_value()) {
      continue;  // watched series not registered yet: never a breach
    }
    const Rule& rule = kRules[i];
    AlertRuleStatus& status = status_[i];
    const RuleEval eval = evaluate_rule(i, *value);
    status.ever_evaluated = true;
    status.last_value = eval.value;
    status.last_breached = eval.breached;
    if (!eval.breached) {
      if (status.state == AlertState::kFiring) {
        transition(i, t_sec, false, eval, trace_id);
        ++changed;
      }
      status.state = AlertState::kInactive;
    } else if (status.state == AlertState::kInactive) {
      // Every rule's hold is positive, so a first breach only pends.
      status.state = AlertState::kPending;
      status.pending_since_sec = t_sec;
    } else if (status.state == AlertState::kPending &&
               t_sec - status.pending_since_sec >= rule.for_sec) {
      status.state = AlertState::kFiring;
      transition(i, t_sec, true, eval, trace_id);
      ++changed;
    }
  }
  if (hooks_.registry != nullptr) {
    hooks_.registry
        ->counter("emap_alerts_evaluations_total", {},
                  "Alert rule-set evaluations")
        .increment();
    hooks_.registry->gauge("emap_alerts_firing", {}, "Rules currently firing")
        .set(static_cast<double>(firing_count()));
  }
  return changed;
}

std::size_t AlertEngine::firing_count() const {
  std::size_t firing = 0;
  for (const AlertRuleStatus& status : status_) {
    if (status.state == AlertState::kFiring) {
      ++firing;
    }
  }
  return firing;
}

bool AlertEngine::ever_fired(const std::string& rule_name) const {
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    if (rule_name == kRules[i].name && status_[i].fired > 0) {
      return true;
    }
  }
  return false;
}

std::string series_key_for(const std::string& name, const Labels& labels) {
  std::string key = name;
  if (!labels.empty()) {
    key += '{';
    bool first = true;
    for (const auto& [label, value] : labels) {
      if (!first) {
        key += ',';
      }
      first = false;
      key += label + "=\"" + value + '"';
    }
    key += '}';
  }
  return key;
}

}  // namespace emap::obs
