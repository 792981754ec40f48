#include "emap/obs/alert.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "emap/common/error.hpp"
#include "emap/obs/flight.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/obs/span.hpp"

namespace emap::obs {
namespace {

AlertRule threshold_rule(std::string series, double value,
                         double for_sec = 0.0, AlertOp op = AlertOp::kGt) {
  AlertRule rule;
  rule.name = std::string("r");
  rule.kind = AlertRuleKind::kThreshold;
  rule.series = std::move(series);
  rule.op = op;
  rule.value = value;
  rule.for_sec = for_sec;
  return rule;
}

// Drives a single-gauge registry: set value, evaluate.
struct GaugeHarness {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("emap_g");
  AlertEngine engine;

  explicit GaugeHarness(std::vector<AlertRule> rules,
                        AlertEngine::Hooks hooks = {})
      : engine(std::move(rules), hooks) {}

  std::size_t step(double t_sec, double value, std::uint64_t trace_id = 0) {
    gauge.set(value);
    return engine.evaluate(registry, t_sec, trace_id);
  }
};

AlertRule rate_rule(double value, double window_sec) {
  AlertRule rule;
  rule.name = std::string("rate");
  rule.kind = AlertRuleKind::kRate;
  rule.series = std::string("emap_c");
  rule.op = AlertOp::kGt;
  rule.value = value;
  rule.window_sec = window_sec;
  return rule;
}

TEST(AlertRule, Validation) {
  AlertRule rule = threshold_rule("emap_g", 1.0);
  EXPECT_NO_THROW(rule.validate());
  rule.name.clear();
  EXPECT_THROW(rule.validate(), std::exception);
  rule = threshold_rule("", 1.0);
  EXPECT_THROW(rule.validate(), std::exception);
  rule = threshold_rule("emap_g", 1.0);
  rule.kind = AlertRuleKind::kEwma;
  rule.alpha = 0.0;  // out of (0, 1]
  EXPECT_THROW(rule.validate(), std::exception);
}

TEST(AlertEngine, ThresholdFiresAndResolvesImmediatelyWithoutFor) {
  GaugeHarness h({threshold_rule("emap_g", 5.0)});
  EXPECT_EQ(h.step(1.0, 1.0), 0u);
  EXPECT_EQ(h.engine.status(0).state, AlertState::kInactive);
  EXPECT_EQ(h.step(2.0, 9.0), 1u);  // breach -> firing (for=0)
  EXPECT_EQ(h.engine.status(0).state, AlertState::kFiring);
  EXPECT_EQ(h.engine.firing_count(), 1u);
  EXPECT_EQ(h.step(3.0, 9.5), 0u);  // steady firing: no new transition
  EXPECT_EQ(h.step(4.0, 1.0), 1u);  // clean -> resolved
  EXPECT_EQ(h.engine.status(0).state, AlertState::kInactive);
  EXPECT_EQ(h.engine.firing_count(), 0u);

  ASSERT_EQ(h.engine.transitions().size(), 2u);
  EXPECT_TRUE(h.engine.transitions()[0].firing);
  EXPECT_EQ(h.engine.transitions()[0].t_sec, 2.0);
  EXPECT_EQ(h.engine.transitions()[0].value, 9.0);
  EXPECT_EQ(h.engine.transitions()[0].threshold, 5.0);
  EXPECT_FALSE(h.engine.transitions()[1].firing);
  EXPECT_TRUE(h.engine.ever_fired("r"));
  EXPECT_FALSE(h.engine.ever_fired("other"));
}

TEST(AlertEngine, ForDurationDebouncesShortBlips) {
  GaugeHarness h({threshold_rule("emap_g", 5.0, /*for_sec=*/3.0)});
  h.step(1.0, 9.0);  // breach starts: pending
  EXPECT_EQ(h.engine.status(0).state, AlertState::kPending);
  h.step(2.0, 9.0);
  h.step(3.0, 1.0);  // blip over before for=3 elapsed: back to inactive
  EXPECT_EQ(h.engine.status(0).state, AlertState::kInactive);
  EXPECT_TRUE(h.engine.transitions().empty());

  h.step(4.0, 9.0);  // sustained breach
  h.step(5.0, 9.0);
  h.step(6.0, 9.0);
  EXPECT_EQ(h.engine.status(0).state, AlertState::kPending);
  h.step(7.0, 9.0);  // held 3 s (since t=4): fires
  EXPECT_EQ(h.engine.status(0).state, AlertState::kFiring);
  ASSERT_EQ(h.engine.transitions().size(), 1u);
  EXPECT_EQ(h.engine.transitions()[0].t_sec, 7.0);
}

TEST(AlertEngine, ComparisonOperators) {
  GaugeHarness h({threshold_rule("emap_g", 5.0, 0.0, AlertOp::kLt)});
  h.step(1.0, 9.0);
  EXPECT_EQ(h.engine.status(0).state, AlertState::kInactive);
  h.step(2.0, 4.0);
  EXPECT_EQ(h.engine.status(0).state, AlertState::kFiring);
}

TEST(AlertEngine, MissingSeriesNeverBreaches) {
  GaugeHarness h({threshold_rule("emap_nope", 5.0)});
  h.step(1.0, 100.0);
  EXPECT_EQ(h.engine.status(0).state, AlertState::kInactive);
  EXPECT_FALSE(h.engine.status(0).ever_evaluated);
  EXPECT_EQ(h.engine.evaluations(), 1u);
}

TEST(AlertEngine, RateRuleWatchesCounterSlope) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("emap_c");
  // Fire above 5 increments/sec.
  AlertEngine engine({rate_rule(5.0, 10.0)});
  for (int t = 1; t <= 20; ++t) {
    counter.increment(2);  // 2/s: under the limit
    engine.evaluate(registry, static_cast<double>(t));
  }
  EXPECT_EQ(engine.status(0).state, AlertState::kInactive);
  EXPECT_EQ(engine.status(0).last_value, 2.0);
  for (int t = 21; t <= 40; ++t) {
    counter.increment(10);  // 10/s: over
    engine.evaluate(registry, static_cast<double>(t));
  }
  EXPECT_EQ(engine.status(0).state, AlertState::kFiring);
}

TEST(AlertEngine, RateWindowForgetsPointsOlderThanTheWindow) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("emap_c");
  AlertEngine engine({rate_rule(5.0, 3.0)});
  engine.evaluate(registry, 1.0);  // one point: no slope yet
  EXPECT_EQ(engine.status(0).last_value, 0.0);
  counter.increment(100);
  engine.evaluate(registry, 2.0);  // 100 over 1 s
  EXPECT_EQ(engine.status(0).last_value, 100.0);
  EXPECT_EQ(engine.status(0).state, AlertState::kFiring);
  engine.evaluate(registry, 3.0);
  engine.evaluate(registry, 4.0);
  // The window [1, 4] still holds the pre-burst point at t=1.
  EXPECT_EQ(engine.status(0).last_value, 100.0 / 3.0);
  engine.evaluate(registry, 5.0);  // [2, 5]: that point has left
  EXPECT_EQ(engine.status(0).last_value, 0.0);
  EXPECT_EQ(engine.status(0).state, AlertState::kInactive);
}

TEST(AlertEngine, ResolvesEveryInstrumentKind) {
  MetricsRegistry registry;
  registry.counter("emap_c", {}, "c").increment(5);
  registry.gauge("emap_g", {{"shard", "0"}}, "g").set(2.5);
  Histogram& histogram =
      registry.histogram("emap_h", {}, Histogram::linear_bounds(0, 10, 10));
  histogram.observe(1.0);
  histogram.observe(3.0);

  std::vector<AlertRule> rules;
  for (const char* key : {"emap_c", "emap_g{shard=\"0\"}", "emap_h:count",
                          "emap_h:sum", "emap_h:mean", "emap_h:p95",
                          "emap_h", "emap_c:count", "emap_g"}) {
    rules.push_back(threshold_rule(key, 1e9));
  }
  AlertEngine engine(rules);
  engine.evaluate(registry, 1.0);

  EXPECT_EQ(engine.status(0).last_value, 5.0);
  EXPECT_EQ(engine.status(1).last_value, 2.5);
  EXPECT_EQ(engine.status(2).last_value, 2.0);
  EXPECT_EQ(engine.status(3).last_value, 4.0);
  EXPECT_EQ(engine.status(4).last_value, 2.0);
  EXPECT_EQ(engine.status(5).last_value, histogram.quantile(0.95));
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(engine.status(i).ever_evaluated) << rules[i].series;
  }
  // A bare histogram name, a suffix on a counter and a label-less key for
  // a labelled gauge name no registry series.
  for (std::size_t i = 6; i < rules.size(); ++i) {
    EXPECT_FALSE(engine.status(i).ever_evaluated) << rules[i].series;
  }
}

TEST(AlertEngine, HistogramMeanIsPerIntervalWithCarryForward) {
  MetricsRegistry registry;
  Histogram& histogram =
      registry.histogram("emap_h", {}, Histogram::linear_bounds(0, 100, 10));
  AlertEngine engine({threshold_rule("emap_h:mean", 1e9)});

  histogram.observe(10.0);
  engine.evaluate(registry, 1.0);  // interval mean 10
  EXPECT_EQ(engine.status(0).last_value, 10.0);
  histogram.observe(20.0);
  histogram.observe(40.0);
  engine.evaluate(registry, 2.0);  // interval mean (20+40)/2 = 30
  EXPECT_EQ(engine.status(0).last_value, 30.0);
  engine.evaluate(registry, 3.0);  // empty interval: carries 30 forward
  EXPECT_EQ(engine.status(0).last_value, 30.0);
}

TEST(AlertEngine, RulesSeeTheRegistryAsOfThePassStart) {
  // Rule "b" watches the fired counter rule "a" bumps.  In the pass where
  // "a" fires, "b" must not see that bump; it sees it one pass later.
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("emap_g");
  AlertRule a = threshold_rule("emap_g", 5.0);
  a.name = std::string("a");
  AlertRule b = threshold_rule("emap_alerts_fired_total{rule=\"a\"}", 0.0);
  b.name = std::string("b");
  AlertEngine::Hooks hooks;
  hooks.registry = &registry;
  AlertEngine engine({a, b}, hooks);

  gauge.set(9.0);
  EXPECT_EQ(engine.evaluate(registry, 1.0), 1u);
  EXPECT_FALSE(engine.status(1).ever_evaluated);
  EXPECT_EQ(engine.evaluate(registry, 2.0), 1u);
  EXPECT_EQ(engine.status(1).state, AlertState::kFiring);
  EXPECT_EQ(engine.status(1).last_value, 1.0);
}

TEST(AlertEngine, EwmaFiresOnStepAndResolvesAsMeanAdapts) {
  AlertRule rule;
  rule.name = "ewma";
  rule.kind = AlertRuleKind::kEwma;
  rule.series = "emap_g";
  rule.op = AlertOp::kGt;  // directional: only upward deviations
  rule.alpha = 0.1;
  rule.sigma = 4.0;
  rule.warmup = 20;
  rule.min_delta = 1e-6;
  rule.for_sec = 3.0;

  GaugeHarness h({rule});
  double t = 0.0;
  // Stationary noise-free-ish baseline around 1.0.
  for (int i = 0; i < 60; ++i) {
    t += 1.0;
    h.step(t, 1.0 + 0.01 * std::sin(0.5 * i));
  }
  EXPECT_EQ(h.engine.status(0).state, AlertState::kInactive);
  EXPECT_GE(h.engine.status(0).ewma_samples, 60u);

  // Step to 2.0 — a huge deviation versus the tiny running stddev.
  bool fired = false;
  for (int i = 0; i < 60; ++i) {
    t += 1.0;
    h.step(t, 2.0);
    if (h.engine.status(0).state == AlertState::kFiring) {
      fired = true;
    }
  }
  EXPECT_TRUE(fired);
  // Mean keeps adapting toward 2.0 while firing, so the alert eventually
  // resolves on its own: the step became the new normal.
  EXPECT_EQ(h.engine.status(0).state, AlertState::kInactive);
  ASSERT_GE(h.engine.transitions().size(), 2u);
  EXPECT_TRUE(h.engine.transitions()[0].firing);
  EXPECT_FALSE(h.engine.transitions().back().firing);
}

TEST(AlertEngine, EwmaIgnoresDownwardMovesForGtRules) {
  AlertRule rule;
  rule.name = "ewma";
  rule.kind = AlertRuleKind::kEwma;
  rule.series = "emap_g";
  rule.op = AlertOp::kGt;
  rule.alpha = 0.1;
  rule.sigma = 4.0;
  rule.warmup = 10;
  rule.min_delta = 1e-6;

  GaugeHarness h({rule});
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += 1.0;
    h.step(t, 1.0 + 0.01 * std::sin(0.7 * i));
  }
  for (int i = 0; i < 20; ++i) {
    t += 1.0;
    h.step(t, 0.1);  // big drop: an improvement, not a page
  }
  EXPECT_TRUE(h.engine.transitions().empty());
}

TEST(AlertEngine, BurnRuleWatchesSloGaugeSeries) {
  EXPECT_EQ(burn_rate_series_key("edge_iteration"),
            "emap_slo_burn_rate{slo=\"edge_iteration\"}");

  AlertRule rule;
  rule.name = "burn";
  rule.kind = AlertRuleKind::kBurnRate;
  rule.series = burn_rate_series_key("edge_iteration");
  rule.value = 1.0;

  MetricsRegistry registry;
  Gauge& burn = registry.gauge("emap_slo_burn_rate",
                               {{"slo", "edge_iteration"}});
  AlertEngine engine({rule});
  burn.set(0.4);
  engine.evaluate(registry, 1.0);
  EXPECT_EQ(engine.status(0).state, AlertState::kInactive);
  burn.set(2.5);
  engine.evaluate(registry, 2.0);
  EXPECT_EQ(engine.status(0).state, AlertState::kFiring);
}

TEST(AlertEngine, HooksStampMetricsSpansAndFlightDump) {
  MetricsRegistry alert_metrics;
  Tracer tracer;
  FlightRecorder flight(64);
  const auto dump_path = std::filesystem::temp_directory_path() /
                         "emap_alert_test_dump.jsonl";
  std::filesystem::remove(dump_path);
  flight.set_dump_path(dump_path);

  AlertEngine::Hooks hooks;
  hooks.registry = &alert_metrics;
  hooks.tracer = &tracer;
  hooks.flight = &flight;
  GaugeHarness h({threshold_rule("emap_g", 5.0)}, hooks);

  h.step(1.0, 9.0, /*trace_id=*/77);  // fires
  h.step(2.0, 1.0, /*trace_id=*/78);  // resolves

  // Metrics: one fired, one resolved, zero currently firing.
  EXPECT_EQ(
      alert_metrics.counter("emap_alerts_fired_total", {{"rule", "r"}})
          .value(),
      1u);
  EXPECT_EQ(
      alert_metrics.counter("emap_alerts_resolved_total", {{"rule", "r"}})
          .value(),
      1u);
  EXPECT_EQ(alert_metrics.gauge("emap_alerts_firing").value(), 0.0);

  // Spans: firing + resolved, trace ids attached.
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "alert:r:fired");
  EXPECT_EQ(spans[0].category, "alert");
  EXPECT_EQ(spans[0].trace_id, 77u);
  EXPECT_EQ(spans[1].name, "alert:r:resolved");

  // Flight: kAlert events recorded, firing triggered a dump.
  std::size_t alert_events = 0;
  for (const FlightEvent& event : flight.snapshot()) {
    if (event.type == FlightEventType::kAlert) {
      ++alert_events;
      EXPECT_EQ(event.b, 5.0);  // threshold rides in b
    }
  }
  EXPECT_EQ(alert_events, 2u);
  EXPECT_EQ(flight.dumps_written(), 1u);
  EXPECT_TRUE(std::filesystem::exists(dump_path));
  std::filesystem::remove(dump_path);

  // Transitions carry the trace ids for offline correlation.
  ASSERT_EQ(h.engine.transitions().size(), 2u);
  EXPECT_EQ(h.engine.transitions()[0].trace_id, 77u);
  EXPECT_EQ(h.engine.transitions()[1].trace_id, 78u);
}

TEST(AlertEngine, TransitionsExportAsJsonl) {
  GaugeHarness h({threshold_rule("emap_g", 5.0)});
  h.step(1.0, 9.0);
  h.step(2.0, 1.0);
  const std::string jsonl = h.engine.to_jsonl();
  EXPECT_NE(jsonl.find("\"rule\":\"r\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"state\":\"resolved\""), std::string::npos);

  const auto path = std::filesystem::temp_directory_path() /
                    "emap_alert_test" / "alerts.jsonl";
  std::filesystem::remove_all(path.parent_path());
  h.engine.write_jsonl(path);
  std::ifstream stream(path);
  ASSERT_TRUE(stream.good());

  // A directory where the file should go is an I/O error, not a bad
  // argument.
  EXPECT_THROW(h.engine.write_jsonl(path.parent_path()), IoError);
  std::filesystem::remove_all(path.parent_path());
}

TEST(ParseAlertRules, ParsesEveryKindAndSkipsComments) {
  const std::string text =
      "# comment line\n"
      "\n"
      "rule lat_thr threshold series=emap_g op=ge value=2.5 for=5\n"
      "rule c_rate rate series=emap_c window=30 op=gt value=0.5\n"
      "rule lat_step ewma series=emap_h:mean alpha=0.2 sigma=3 warmup=10 "
      "min_delta=0.001 for=3\n"
      "rule edge_burn burn slo=edge_iteration value=1.5 for=4\n";
  std::string error;
  const auto rules = parse_alert_rules(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(rules.size(), 4u);

  EXPECT_EQ(rules[0].name, "lat_thr");
  EXPECT_EQ(rules[0].kind, AlertRuleKind::kThreshold);
  EXPECT_EQ(rules[0].op, AlertOp::kGe);
  EXPECT_EQ(rules[0].value, 2.5);
  EXPECT_EQ(rules[0].for_sec, 5.0);

  EXPECT_EQ(rules[1].kind, AlertRuleKind::kRate);
  EXPECT_EQ(rules[1].window_sec, 30.0);

  EXPECT_EQ(rules[2].kind, AlertRuleKind::kEwma);
  EXPECT_EQ(rules[2].series, "emap_h:mean");
  EXPECT_EQ(rules[2].alpha, 0.2);
  EXPECT_EQ(rules[2].sigma, 3.0);
  EXPECT_EQ(rules[2].warmup, 10u);
  EXPECT_EQ(rules[2].min_delta, 0.001);

  EXPECT_EQ(rules[3].kind, AlertRuleKind::kBurnRate);
  EXPECT_EQ(rules[3].series, burn_rate_series_key("edge_iteration"));
  EXPECT_EQ(rules[3].value, 1.5);
}

TEST(ParseAlertRules, ReportsLineNumberOnMalformedInput) {
  std::string error;
  parse_alert_rules("rule ok threshold series=emap_g value=1\n"
                    "rule broken bogus_kind series=emap_g\n",
                    &error);
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find("2"), std::string::npos);  // names the line

  error.clear();
  parse_alert_rules("not_a_rule_statement\n", &error);
  EXPECT_FALSE(error.empty());

  error.clear();
  parse_alert_rules("rule x threshold series=emap_g value=abc\n", &error);
  EXPECT_FALSE(error.empty());

  // Trailing text, a non-finite value and a negative count are malformed
  // too; each names its line.
  for (const char* bad :
       {"rule x threshold series=emap_g value=80abc\n",
        "rule x ewma series=emap_g warmup=-1\n",
        "rule x threshold series=emap_g value=nan\n"}) {
    error.clear();
    const auto rules = parse_alert_rules(
        std::string("rule ok threshold series=emap_g value=1\n") + bad,
        &error);
    EXPECT_EQ(rules.size(), 1u) << bad;
    EXPECT_NE(error.find("line 2"), std::string::npos) << bad;
  }
}

TEST(LoadAlertRules, MissingFileIsAnError) {
  std::string error;
  const auto rules = load_alert_rules("/nonexistent/alerts.rules", &error);
  EXPECT_TRUE(rules.empty());
  EXPECT_FALSE(error.empty());
}

TEST(LoadAlertRules, RoundTripsThroughAFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    "emap_alert_rules_test.rules";
  {
    std::ofstream stream(path);
    stream << "rule t threshold series=emap_g value=1.0\n";
  }
  std::string error;
  const auto rules = load_alert_rules(path, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].name, "t");
  std::filesystem::remove(path);
}

TEST(DefaultAlertRules, CoverLatencyStepAndBothSlos) {
  const auto rules = default_alert_rules();
  ASSERT_EQ(rules.size(), 3u);
  for (const AlertRule& rule : rules) {
    EXPECT_NO_THROW(rule.validate());
  }
  EXPECT_EQ(rules[0].kind, AlertRuleKind::kEwma);
  EXPECT_EQ(rules[0].series, "emap_track_step_seconds:mean");
  EXPECT_EQ(rules[1].kind, AlertRuleKind::kBurnRate);
  EXPECT_EQ(rules[1].series, burn_rate_series_key("edge_iteration"));
  EXPECT_EQ(rules[2].series, burn_rate_series_key("initial_response"));
}

TEST(SeriesKeyFor, FormatsLabels) {
  EXPECT_EQ(series_key_for("emap_x", {}), "emap_x");
  EXPECT_EQ(series_key_for("emap_x", {{"a", "1"}, {"b", "2"}}),
            "emap_x{a=\"1\",b=\"2\"}");
}

TEST(AlertNames, StableStrings) {
  EXPECT_STREQ(alert_rule_kind_name(AlertRuleKind::kEwma), "ewma");
  EXPECT_STREQ(alert_state_name(AlertState::kFiring), "firing");
  EXPECT_STREQ(alert_op_name(AlertOp::kGe), "ge");
}

}  // namespace
}  // namespace emap::obs
