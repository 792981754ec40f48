#include "emap/obs/alert.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "emap/obs/metrics.hpp"
#include "emap/obs/slo.hpp"
#include "emap/obs/span.hpp"

namespace emap::obs {
namespace {

// status() indices of the built-in rules.
constexpr std::size_t kLatencyStep = 0;
constexpr std::size_t kEdgeBurn = 1;
constexpr std::size_t kInitialBurn = 2;

constexpr const char* kEdgeBurnSeries =
    "emap_slo_burn_rate{slo=\"edge_iteration\"}";

// Drives the edge_iteration burn gauge: set value, evaluate.
struct BurnHarness {
  MetricsRegistry registry;
  Gauge& burn =
      registry.gauge("emap_slo_burn_rate", {{"slo", "edge_iteration"}});
  AlertEngine engine;

  explicit BurnHarness(AlertEngine::Hooks hooks = {}) : engine(hooks) {}

  std::size_t step(double t_sec, double value, std::uint64_t trace_id = 0) {
    burn.set(value);
    return engine.evaluate(registry, t_sec, trace_id);
  }
};

// Drives the track-step histogram with one observation per evaluation, so
// each interval's mean is that observation.
struct StepHarness {
  MetricsRegistry registry;
  Histogram& track = registry.histogram(
      "emap_track_step_seconds", {}, Histogram::default_latency_bounds());
  AlertEngine engine;

  void step(double t_sec, double value) {
    track.observe(value);
    engine.evaluate(registry, t_sec);
  }
};

TEST(AlertEngine, FiresOnceAndResolvesOnTheFirstCleanPass) {
  BurnHarness h;
  EXPECT_EQ(h.step(1.0, 0.5), 0u);
  EXPECT_EQ(h.engine.status(kEdgeBurn).state, AlertState::kInactive);
  for (double t = 2.0; t < 7.0; t += 1.0) {
    EXPECT_EQ(h.step(t, 9.0), 0u);  // breach pends through the 5 s hold
  }
  EXPECT_EQ(h.step(7.0, 9.0), 1u);  // held 5 s: fires
  EXPECT_EQ(h.engine.status(kEdgeBurn).state, AlertState::kFiring);
  EXPECT_EQ(h.engine.firing_count(), 1u);
  EXPECT_EQ(h.step(8.0, 9.5), 0u);  // steady firing: no new transition
  EXPECT_EQ(h.step(9.0, 0.5), 1u);  // one clean pass resolves
  EXPECT_EQ(h.engine.status(kEdgeBurn).state, AlertState::kInactive);
  EXPECT_EQ(h.engine.firing_count(), 0u);

  ASSERT_EQ(h.engine.transitions().size(), 2u);
  EXPECT_TRUE(h.engine.transitions()[0].firing);
  EXPECT_EQ(h.engine.transitions()[0].rule, "edge_iteration_burn");
  EXPECT_EQ(h.engine.transitions()[0].series, kEdgeBurnSeries);
  EXPECT_EQ(h.engine.transitions()[0].t_sec, 7.0);
  EXPECT_EQ(h.engine.transitions()[0].value, 9.0);
  EXPECT_EQ(h.engine.transitions()[0].threshold, kBurnRateLimit);
  EXPECT_FALSE(h.engine.transitions()[1].firing);
  EXPECT_EQ(h.engine.transitions()[1].value, 0.5);
  EXPECT_TRUE(h.engine.ever_fired("edge_iteration_burn"));
  EXPECT_FALSE(h.engine.ever_fired("initial_response_burn"));
}

TEST(AlertEngine, ForDurationDebouncesShortBlips) {
  BurnHarness h;
  h.step(1.0, 9.0);  // breach starts: pending
  EXPECT_EQ(h.engine.status(kEdgeBurn).state, AlertState::kPending);
  h.step(2.0, 9.0);
  h.step(3.0, 9.0);
  h.step(4.0, 9.0);
  h.step(5.0, 0.5);  // blip over before the 5 s hold: back to inactive
  EXPECT_EQ(h.engine.status(kEdgeBurn).state, AlertState::kInactive);
  EXPECT_TRUE(h.engine.transitions().empty());

  for (double t = 6.0; t < 11.0; t += 1.0) {  // sustained breach
    h.step(t, 9.0);
    EXPECT_EQ(h.engine.status(kEdgeBurn).state, AlertState::kPending);
  }
  h.step(11.0, 9.0);  // held 5 s (since t=6): fires
  EXPECT_EQ(h.engine.status(kEdgeBurn).state, AlertState::kFiring);
  ASSERT_EQ(h.engine.transitions().size(), 1u);
  EXPECT_EQ(h.engine.transitions()[0].t_sec, 11.0);
}

TEST(AlertEngine, MissingSeriesNeverBreaches) {
  MetricsRegistry registry;
  registry.gauge("emap_g").set(100.0);
  registry.gauge("emap_slo_burn_rate", {{"slo", "other"}}).set(100.0);
  AlertEngine engine;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    engine.evaluate(registry, t);
  }
  for (std::size_t i = 0; i < AlertEngine::kRuleCount; ++i) {
    EXPECT_EQ(engine.status(i).state, AlertState::kInactive) << i;
    EXPECT_FALSE(engine.status(i).ever_evaluated) << i;
  }
  EXPECT_EQ(engine.evaluations(), 10u);
}

TEST(AlertEngine, ResolvesEveryInstrumentKind) {
  MetricsRegistry registry;
  Histogram& track = registry.histogram(
      "emap_track_step_seconds", {}, Histogram::linear_bounds(0, 10, 10));
  track.observe(1.0);
  track.observe(3.0);
  registry.gauge("emap_slo_burn_rate", {{"slo", "edge_iteration"}}).set(2.5);
  registry.gauge("emap_slo_burn_rate", {{"slo", "initial_response"}})
      .set(0.5);
  AlertEngine engine;
  engine.evaluate(registry, 1.0);
  EXPECT_EQ(engine.status(kLatencyStep).last_value, 2.0);  // histogram mean
  EXPECT_EQ(engine.status(kEdgeBurn).last_value, 2.5);     // gauge
  EXPECT_EQ(engine.status(kInitialBurn).last_value, 0.5);
  for (std::size_t i = 0; i < AlertEngine::kRuleCount; ++i) {
    EXPECT_TRUE(engine.status(i).ever_evaluated) << i;
  }

  // The right names with the wrong kinds or labels name no watched
  // series: a gauge where the histogram belongs, a histogram where the
  // burn gauge belongs, and a label-less burn gauge.
  MetricsRegistry wrong;
  wrong.gauge("emap_track_step_seconds").set(1.0);
  wrong.histogram("emap_slo_burn_rate", {{"slo", "edge_iteration"}})
      .observe(5.0);
  wrong.gauge("emap_slo_burn_rate").set(5.0);
  AlertEngine blind;
  blind.evaluate(wrong, 1.0);
  for (std::size_t i = 0; i < AlertEngine::kRuleCount; ++i) {
    EXPECT_FALSE(blind.status(i).ever_evaluated) << i;
  }
}

TEST(AlertEngine, HistogramMeanIsPerIntervalWithCarryForward) {
  MetricsRegistry registry;
  Histogram& track = registry.histogram(
      "emap_track_step_seconds", {}, Histogram::linear_bounds(0, 100, 10));
  AlertEngine engine;

  track.observe(10.0);
  engine.evaluate(registry, 1.0);  // interval mean 10
  EXPECT_EQ(engine.status(kLatencyStep).last_value, 10.0);
  track.observe(20.0);
  track.observe(40.0);
  engine.evaluate(registry, 2.0);  // interval mean (20+40)/2 = 30
  EXPECT_EQ(engine.status(kLatencyStep).last_value, 30.0);
  engine.evaluate(registry, 3.0);  // empty interval: carries 30 forward
  EXPECT_EQ(engine.status(kLatencyStep).last_value, 30.0);
}

TEST(AlertEngine, EwmaFiresOnStepAndResolvesAsMeanAdapts) {
  StepHarness h;
  double t = 0.0;
  // Stationary noise-free-ish baseline around 1.0 s.
  for (int i = 0; i < 60; ++i) {
    t += 1.0;
    h.step(t, 1.0 + 0.01 * std::sin(0.5 * i));
  }
  EXPECT_EQ(h.engine.status(kLatencyStep).state, AlertState::kInactive);
  EXPECT_GE(h.engine.status(kLatencyStep).ewma_samples, 60u);

  // Step to 2.0 s — a huge deviation versus the tiny running stddev.
  bool fired = false;
  for (int i = 0; i < 60; ++i) {
    t += 1.0;
    h.step(t, 2.0);
    if (h.engine.status(kLatencyStep).state == AlertState::kFiring) {
      fired = true;
    }
  }
  EXPECT_TRUE(fired);
  // Mean keeps adapting toward 2.0 while firing, so the alert eventually
  // resolves on its own: the step became the new normal.
  EXPECT_EQ(h.engine.status(kLatencyStep).state, AlertState::kInactive);
  ASSERT_GE(h.engine.transitions().size(), 2u);
  EXPECT_EQ(h.engine.transitions()[0].rule, "track_latency_step");
  EXPECT_EQ(h.engine.transitions()[0].series, "emap_track_step_seconds:mean");
  EXPECT_TRUE(h.engine.transitions()[0].firing);
  EXPECT_FALSE(h.engine.transitions().back().firing);
}

TEST(AlertEngine, EwmaIgnoresDownwardMovesForGtRules) {
  StepHarness h;
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
  // The burn rule reads the gauge SloMonitor registers; a burn exactly at
  // the limit is not a breach.
  MetricsRegistry registry;
  SloMonitor monitor(edge_iteration_slo(), &registry);
  AlertEngine engine;
  monitor.observe(0.1);
  engine.evaluate(registry, 1.0);
  EXPECT_TRUE(engine.status(kEdgeBurn).ever_evaluated);
  EXPECT_EQ(engine.status(kEdgeBurn).last_value, 0.0);
  EXPECT_FALSE(engine.status(kEdgeBurn).last_breached);

  registry.gauge("emap_slo_burn_rate", {{"slo", "edge_iteration"}})
      .set(kBurnRateLimit);
  engine.evaluate(registry, 2.0);
  EXPECT_FALSE(engine.status(kEdgeBurn).last_breached);

  monitor.observe(5.0);  // a deadline miss burns the budget
  ASSERT_GT(monitor.burn_rate(), kBurnRateLimit);
  engine.evaluate(registry, 3.0);
  EXPECT_EQ(engine.status(kEdgeBurn).last_value, monitor.burn_rate());
  EXPECT_TRUE(engine.status(kEdgeBurn).last_breached);
  EXPECT_EQ(engine.status(kEdgeBurn).state, AlertState::kPending);
}

TEST(AlertEngine, HooksStampMetricsAndSpans) {
  MetricsRegistry alert_metrics;
  Tracer tracer;

  AlertEngine::Hooks hooks;
  hooks.registry = &alert_metrics;
  hooks.tracer = &tracer;
  BurnHarness h(hooks);

  for (double t = 1.0; t < 6.0; t += 1.0) {
    h.step(t, 9.0, /*trace_id=*/70);
  }
  h.step(6.0, 9.0, /*trace_id=*/77);  // fires
  h.step(7.0, 0.5, /*trace_id=*/78);  // resolves

  // Metrics: one fired, one resolved, zero currently firing.
  const Labels rule = {{"rule", "edge_iteration_burn"}};
  EXPECT_EQ(alert_metrics.counter("emap_alerts_fired_total", rule).value(),
            1u);
  EXPECT_EQ(
      alert_metrics.counter("emap_alerts_resolved_total", rule).value(), 1u);
  EXPECT_EQ(alert_metrics.gauge("emap_alerts_firing").value(), 0.0);
  EXPECT_EQ(alert_metrics.counter("emap_alerts_evaluations_total").value(),
            7u);

  // Spans: firing + resolved, trace ids attached.
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "alert:edge_iteration_burn:fired");
  EXPECT_EQ(spans[0].category, "alert");
  EXPECT_EQ(spans[0].trace_id, 77u);
  EXPECT_EQ(spans[1].name, "alert:edge_iteration_burn:resolved");

  // Transitions carry the trace ids for offline correlation.
  ASSERT_EQ(h.engine.transitions().size(), 2u);
  EXPECT_EQ(h.engine.transitions()[0].trace_id, 77u);
  EXPECT_EQ(h.engine.transitions()[1].trace_id, 78u);
  EXPECT_EQ(h.engine.transitions()[0].threshold, kBurnRateLimit);
}

TEST(DefaultAlertRules, CoverLatencyStepAndBothSlos) {
  // Both paper SLOs registered as the pipeline registers them, and a
  // latency step late in the run: each built-in rule fires on its series.
  MetricsRegistry registry;
  SloMonitor edge(edge_iteration_slo(), &registry);
  SloMonitor initial(initial_response_slo(), &registry);
  Histogram& track = registry.histogram("emap_track_step_seconds", {},
                                        Histogram::default_latency_bounds());
  AlertEngine engine;
  for (int i = 1; i <= 60; ++i) {
    const bool stepped = i > 40;
    const double step_sec = stepped ? 1.5 : 0.2 + 0.001 * std::sin(0.3 * i);
    track.observe(step_sec);
    edge.observe(step_sec);
    initial.observe(stepped ? 4.0 : 2.0);
    engine.evaluate(registry, static_cast<double>(i));
  }
  ASSERT_EQ(AlertEngine::kRuleCount, 3u);
  EXPECT_TRUE(engine.ever_fired("track_latency_step"));
  EXPECT_TRUE(engine.ever_fired("edge_iteration_burn"));
  EXPECT_TRUE(engine.ever_fired("initial_response_burn"));
  std::map<std::string, std::string> series;
  for (const AlertTransition& transition : engine.transitions()) {
    series[transition.rule] = transition.series;
  }
  EXPECT_EQ(series["track_latency_step"], "emap_track_step_seconds:mean");
  EXPECT_EQ(series["edge_iteration_burn"], kEdgeBurnSeries);
  EXPECT_EQ(series["initial_response_burn"],
            "emap_slo_burn_rate{slo=\"initial_response\"}");
}

TEST(SeriesKeyFor, FormatsLabels) {
  EXPECT_EQ(series_key_for("emap_x", {}), "emap_x");
  EXPECT_EQ(series_key_for("emap_x", {{"a", "1"}, {"b", "2"}}),
            "emap_x{a=\"1\",b=\"2\"}");
}

TEST(AlertNames, StableStrings) {
  EXPECT_STREQ(alert_state_name(AlertState::kInactive), "inactive");
  EXPECT_STREQ(alert_state_name(AlertState::kPending), "pending");
  EXPECT_STREQ(alert_state_name(AlertState::kFiring), "firing");
}

}  // namespace
}  // namespace emap::obs
