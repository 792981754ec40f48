#include "emap/obs/alert.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "emap/common/error.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/flight.hpp"
#include "emap/obs/span.hpp"

namespace emap::obs {

const char* alert_rule_kind_name(AlertRuleKind kind) {
  switch (kind) {
    case AlertRuleKind::kThreshold:
      return "threshold";
    case AlertRuleKind::kRate:
      return "rate";
    case AlertRuleKind::kEwma:
      return "ewma";
    case AlertRuleKind::kBurnRate:
      return "burn";
  }
  return "unknown";
}

const char* alert_op_name(AlertOp op) {
  switch (op) {
    case AlertOp::kGt:
      return "gt";
    case AlertOp::kGe:
      return "ge";
    case AlertOp::kLt:
      return "lt";
    case AlertOp::kLe:
      return "le";
  }
  return "unknown";
}

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

void AlertRule::validate() const {
  require(!name.empty(), "AlertRule: name must not be empty");
  require(!series.empty(), "AlertRule: series must not be empty");
  require(for_sec >= 0.0, "AlertRule: for_sec must be non-negative");
  if (kind == AlertRuleKind::kRate) {
    require(window_sec > 0.0, "AlertRule: rate window must be positive");
  }
  if (kind == AlertRuleKind::kEwma) {
    require(alpha > 0.0 && alpha <= 1.0,
            "AlertRule: ewma alpha must be in (0, 1]");
    require(sigma > 0.0, "AlertRule: ewma sigma must be positive");
    require(min_delta >= 0.0,
            "AlertRule: ewma min_delta must be non-negative");
  }
}

namespace {

bool compare(AlertOp op, double value, double limit) {
  switch (op) {
    case AlertOp::kGt:
      return value > limit;
    case AlertOp::kGe:
      return value >= limit;
    case AlertOp::kLt:
      return value < limit;
    case AlertOp::kLe:
      return value <= limit;
  }
  return false;
}

}  // namespace

AlertEngine::AlertEngine(std::vector<AlertRule> rules, Hooks hooks)
    : rules_(std::move(rules)),
      status_(rules_.size()),
      cursors_(rules_.size()),
      hooks_(hooks) {
  for (const AlertRule& rule : rules_) {
    rule.validate();
  }
}

std::optional<double> AlertEngine::read(
    std::size_t rule_index, const std::vector<const MetricEntry*>& entries) {
  const std::string& key = rules_[rule_index].series;
  for (const MetricEntry* entry : entries) {
    if (key.compare(0, entry->name.size(), entry->name) != 0) {
      continue;
    }
    const std::string base = series_key_for(entry->name, entry->labels);
    if (entry->kind == MetricKind::kCounter && key == base) {
      return static_cast<double>(entry->counter->value());
    }
    if (entry->kind == MetricKind::kGauge && key == base) {
      return entry->gauge->value();
    }
    if (entry->kind != MetricKind::kHistogram || key.size() <= base.size() ||
        key.compare(0, base.size(), base) != 0 || key[base.size()] != ':') {
      continue;
    }
    const std::string_view suffix =
        std::string_view(key).substr(base.size() + 1);
    const Histogram& histogram = *entry->histogram;
    if (suffix == "count") {
      return static_cast<double>(histogram.count());
    }
    if (suffix == "sum") {
      return histogram.sum();
    }
    if (suffix == "p95") {
      return histogram.quantile(0.95);
    }
    if (suffix == "mean") {
      // Per-interval mean: Δsum/Δcount since the previous evaluation; an
      // interval with no observations carries the last mean forward.
      Cursor& cursor = cursors_[rule_index];
      const double sum = histogram.sum();
      const std::uint64_t count = histogram.count();
      const std::uint64_t delta_count = count - cursor.count;
      if (delta_count > 0) {
        cursor.last_mean =
            (sum - cursor.sum) / static_cast<double>(delta_count);
      }
      cursor.sum = sum;
      cursor.count = count;
      return cursor.last_mean;
    }
  }
  return std::nullopt;
}

AlertEngine::RuleEval AlertEngine::evaluate_rule(std::size_t rule_index,
                                                 double t_sec, double value) {
  const AlertRule& rule = rules_[rule_index];
  AlertRuleStatus& status = status_[rule_index];
  RuleEval eval;
  eval.value = value;
  eval.threshold = rule.value;
  switch (rule.kind) {
    case AlertRuleKind::kThreshold:
    case AlertRuleKind::kBurnRate:
      eval.breached = compare(rule.op, eval.value, eval.threshold);
      break;
    case AlertRuleKind::kRate: {
      // Increase from the oldest point still inside the trailing window to
      // this one, per second of the time actually spanned.
      auto& points = cursors_[rule_index].points;
      points.emplace_back(t_sec, value);
      const double from = t_sec - rule.window_sec;
      while (points.front().first < from) {
        points.pop_front();
      }
      const double dt = t_sec - points.front().first;
      eval.value = dt > 0.0 ? (value - points.front().second) / dt : 0.0;
      eval.breached = compare(rule.op, eval.value, eval.threshold);
      break;
    }
    case AlertRuleKind::kEwma: {
      if (status.ewma_samples == 0) {
        status.ewma_mean = eval.value;
        status.ewma_var = 0.0;
        status.ewma_samples = 1;
        eval.threshold = 0.0;
        break;
      }
      const double deviation = eval.value - status.ewma_mean;
      const double stddev = std::sqrt(status.ewma_var);
      eval.threshold =
          std::max(rule.sigma * stddev, rule.min_delta);
      const bool warmed = status.ewma_samples >= rule.warmup;
      const double magnitude = std::fabs(deviation);
      bool directional = true;
      if (rule.op == AlertOp::kGt || rule.op == AlertOp::kGe) {
        directional = deviation > 0.0;
      } else {
        directional = deviation < 0.0;
      }
      eval.breached =
          warmed && directional && magnitude > eval.threshold;
      // Mean adapts to every sample so a sustained level shift becomes
      // the new normal (and the alert resolves); variance learns only
      // from in-band samples so one outburst cannot widen the band and
      // mask itself.
      status.ewma_mean += rule.alpha * deviation;
      if (!eval.breached) {
        status.ewma_var =
            (1.0 - rule.alpha) *
            (status.ewma_var + rule.alpha * deviation * deviation);
      }
      ++status.ewma_samples;
      break;
    }
  }
  return eval;
}

void AlertEngine::transition(std::size_t rule_index, double t_sec,
                             bool firing, const RuleEval& eval,
                             std::uint64_t trace_id) {
  const AlertRule& rule = rules_[rule_index];
  AlertRuleStatus& status = status_[rule_index];
  AlertTransition record;
  record.rule = rule.name;
  record.series = rule.series;
  record.t_sec = t_sec;
  record.firing = firing;
  record.value = eval.value;
  record.threshold = eval.threshold;
  record.trace_id = trace_id;
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
  if (hooks_.flight != nullptr) {
    hooks_.flight->log(FlightEventType::kAlert,
                       (rule.name + (firing ? ":fired" : ":resolved")).c_str(),
                       t_sec, trace_id, eval.value, eval.threshold);
    if (firing) {
      hooks_.flight->trigger_dump("alert_firing");
    }
  }
}

std::size_t AlertEngine::evaluate(const MetricsRegistry& registry,
                                  double t_sec, std::uint64_t trace_id) {
  ++evaluations_;
  // Read every watched value first: transitions below bump emap_alerts_*
  // in this same registry, and no rule may see this pass's own bumps.
  const std::vector<const MetricEntry*> entries = registry.entries();
  std::vector<std::optional<double>> values(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    values[i] = read(i, entries);
  }
  std::size_t changed = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (!values[i].has_value()) {
      continue;  // watched series not registered yet: never a breach
    }
    const AlertRule& rule = rules_[i];
    AlertRuleStatus& status = status_[i];
    const RuleEval eval = evaluate_rule(i, t_sec, *values[i]);
    status.ever_evaluated = true;
    status.last_value = eval.value;
    status.last_breached = eval.breached;
    if (eval.breached) {
      switch (status.state) {
        case AlertState::kInactive:
          status.pending_since_sec = t_sec;
          if (t_sec - status.pending_since_sec >= rule.for_sec) {
            status.state = AlertState::kFiring;
            transition(i, t_sec, true, eval, trace_id);
            ++changed;
          } else {
            status.state = AlertState::kPending;
          }
          break;
        case AlertState::kPending:
          if (t_sec - status.pending_since_sec >= rule.for_sec) {
            status.state = AlertState::kFiring;
            transition(i, t_sec, true, eval, trace_id);
            ++changed;
          }
          break;
        case AlertState::kFiring:
          break;
      }
    } else {
      if (status.state == AlertState::kFiring) {
        transition(i, t_sec, false, eval, trace_id);
        ++changed;
      }
      status.state = AlertState::kInactive;
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
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].name == rule_name && status_[i].fired > 0) {
      return true;
    }
  }
  return false;
}

std::string AlertEngine::to_jsonl() const {
  std::string out;
  for (const AlertTransition& transition : transitions_) {
    JsonWriter json;
    json.field("rule", transition.rule)
        .field("series", transition.series)
        .field("t_sec", transition.t_sec)
        .field("state", transition.firing ? "firing" : "resolved")
        .field("value", transition.value)
        .field("threshold", transition.threshold)
        .field("trace_id", transition.trace_id);
    out += json.str();
    out += '\n';
  }
  return out;
}

void AlertEngine::write_jsonl(const std::filesystem::path& path) const {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream stream(path);
  if (!stream) {
    throw IoError("AlertEngine::write_jsonl: cannot open " + path.string());
  }
  stream << to_jsonl();
  stream.flush();
  if (!stream) {
    throw IoError("AlertEngine::write_jsonl: write failed for " +
                  path.string());
  }
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

std::string burn_rate_series_key(const std::string& slo_name) {
  return series_key_for("emap_slo_burn_rate", {{"slo", slo_name}});
}

namespace {

bool parse_op(const std::string& text, AlertOp* op) {
  if (text == "gt") {
    *op = AlertOp::kGt;
  } else if (text == "ge") {
    *op = AlertOp::kGe;
  } else if (text == "lt") {
    *op = AlertOp::kLt;
  } else if (text == "le") {
    *op = AlertOp::kLe;
  } else {
    return false;
  }
  return true;
}

/// A whole-token finite number (std::stod would accept "80abc", "nan").
bool parse_finite(const std::string& text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// A whole-token non-negative integer (std::stoul wraps "-1" to 2^64-1).
bool parse_count(const std::string& text, std::size_t* out) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

bool parse_kind(const std::string& text, AlertRuleKind* kind) {
  if (text == "threshold") {
    *kind = AlertRuleKind::kThreshold;
  } else if (text == "rate") {
    *kind = AlertRuleKind::kRate;
  } else if (text == "ewma") {
    *kind = AlertRuleKind::kEwma;
  } else if (text == "burn") {
    *kind = AlertRuleKind::kBurnRate;
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::vector<AlertRule> parse_alert_rules(const std::string& text,
                                         std::string* error) {
  if (error != nullptr) {
    error->clear();
  }
  std::vector<AlertRule> rules;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_number = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "alert rules line " + std::to_string(line_number) + ": " +
               message;
    }
    return rules;
  };
  while (std::getline(lines, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head)) {
      continue;  // blank / comment-only line
    }
    if (head != "rule") {
      return fail("expected 'rule', got '" + head + "'");
    }
    AlertRule rule;
    std::string kind_text;
    if (!(tokens >> rule.name >> kind_text)) {
      return fail("expected 'rule <name> <kind> ...'");
    }
    if (!parse_kind(kind_text, &rule.kind)) {
      return fail("unknown rule kind '" + kind_text + "'");
    }
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return fail("expected key=value, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      bool number_ok = true;
      if (key == "series") {
        rule.series = value;
      } else if (key == "slo") {
        rule.series = burn_rate_series_key(value);
      } else if (key == "op") {
        if (!parse_op(value, &rule.op)) {
          return fail("unknown op '" + value + "'");
        }
      } else if (key == "value") {
        number_ok = parse_finite(value, &rule.value);
      } else if (key == "window") {
        number_ok = parse_finite(value, &rule.window_sec);
      } else if (key == "alpha") {
        number_ok = parse_finite(value, &rule.alpha);
      } else if (key == "sigma") {
        number_ok = parse_finite(value, &rule.sigma);
      } else if (key == "warmup") {
        number_ok = parse_count(value, &rule.warmup);
      } else if (key == "min_delta") {
        number_ok = parse_finite(value, &rule.min_delta);
      } else if (key == "for") {
        number_ok = parse_finite(value, &rule.for_sec);
      } else {
        return fail("unknown key '" + key + "'");
      }
      if (!number_ok) {
        return fail("bad number in '" + token + "'");
      }
    }
    if (rule.kind == AlertRuleKind::kBurnRate && rule.value == 0.0) {
      rule.value = 1.0;  // burn rate 1.0 = budget exactly consumed
    }
    if (rule.series.empty()) {
      return fail("rule '" + rule.name + "' names no series (series= or slo=)");
    }
    try {
      rule.validate();
    } catch (const std::exception& bad) {
      return fail(bad.what());
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::vector<AlertRule> load_alert_rules(const std::filesystem::path& path,
                                        std::string* error) {
  std::ifstream stream(path);
  if (!stream) {
    if (error != nullptr) {
      *error = "cannot open alert rules file " + path.string();
    }
    return {};
  }
  std::ostringstream text;
  text << stream.rdbuf();
  return parse_alert_rules(text.str(), error);
}

std::vector<AlertRule> default_alert_rules() {
  const std::string text =
      "# Installed by emapctl --alerts-out without --alert-rules.\n"
      "rule track_latency_step ewma series=emap_track_step_seconds:mean "
      "alpha=0.1 sigma=4 warmup=30 min_delta=1e-6 for=3\n"
      "rule edge_iteration_burn burn slo=edge_iteration value=1.0 for=5\n"
      "rule initial_response_burn burn slo=initial_response value=1.0 "
      "for=5\n";
  std::string error;
  std::vector<AlertRule> rules = parse_alert_rules(text, &error);
  require(error.empty(), "default_alert_rules: self-parse failed");
  return rules;
}

}  // namespace emap::obs
