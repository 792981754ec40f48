// Soak: hours of virtual time under the alerting stack and the decision
// record.
//
// The engine-level soak drives the exact series the built-in alert rules
// watch (emap_track_step_seconds:mean and the two SLO burn gauges)
// straight from a registry through 2+ simulated hours with a latency step
// injected late in the run, then asserts the whole closed loop: the EWMA
// and burn rules firing, their transitions riding the 7,200-window
// decision record, and the offline CUSUM report reconstructing the
// changepoint from that record within ±2 windows.  The pipeline-level
// soak runs the real EmapPipeline under the fault injector and pins down
// determinism (a bit-identical record, alert transitions included, across
// identical seeded runs) and that alerting is a pure observer of the run.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>

#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/obs/alert.hpp"
#include "emap/obs/dashboard.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/obs/span.hpp"
#include "emap/sim/device.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

constexpr double kSoakSeconds = 7200.0;  // two simulated hours
constexpr double kStepAtSec = 7000.0;    // latency regression near the end
constexpr double kBaselineTrack = 0.12;
constexpr double kSteppedTrack = 0.45;

synth::Recording seizure_input(std::uint64_t seed, double duration = 40.0,
                               double onset = 35.0) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = duration;
  spec.onset_sec = onset;
  return synth::make_eval_input(spec);
}

/// An edge device 50x slower than the Raspberry Pi model: its track steps
/// overrun the 1 s budget, so the built-in burn rule fires and the hooks
/// run inside the pipeline.
sim::DeviceProfile slowed_edge() {
  sim::DeviceProfile edge = sim::edge_raspberry_pi();
  edge.name = "slowed-edge";
  edge.mac_ops_per_sec /= 50.0;
  edge.abs_ops_per_sec /= 50.0;
  edge.per_signal_overhead_sec *= 50.0;
  return edge;
}

TEST(Soak, TwoVirtualHoursWithLateLatencyStep) {
  emap::testing::TempDir dir("soak");

  obs::MetricsRegistry registry;
  obs::Histogram& track = registry.histogram(
      "emap_track_step_seconds", {}, obs::Histogram::default_latency_bounds());
  obs::Gauge& edge_burn = registry.gauge("emap_slo_burn_rate",
                                         {{"slo", "edge_iteration"}});
  obs::Gauge& initial_burn = registry.gauge("emap_slo_burn_rate",
                                            {{"slo", "initial_response"}});

  obs::Tracer tracer;
  obs::AlertEngine::Hooks hooks;
  hooks.registry = &registry;
  hooks.tracer = &tracer;
  obs::AlertEngine engine(hooks);

  // One virtual second per iteration, exactly like the pipeline's window
  // cadence; each window's step time and alert transitions also go into
  // its record, as Session::end_window puts them.  Deterministic wobble
  // keeps the EWMA variance finite.
  RunResult record;
  for (double t = 1.0; t <= kSoakSeconds; t += 1.0) {
    const double wobble = 0.001 * std::sin(0.37 * t);
    const bool stepped = t >= kStepAtSec;
    const double step_sec = (stepped ? kSteppedTrack : kBaselineTrack) + wobble;
    track.observe(step_sec);
    edge_burn.set(stepped ? 3.0 : 0.2 + 0.05 * std::sin(0.11 * t));
    initial_burn.set(0.1);
    const std::size_t made =
        engine.evaluate(registry, t, static_cast<std::uint64_t>(t));
    IterationRecord window;
    window.window_index = record.iterations.size();
    window.t_sec = t;
    window.tracked = true;
    window.track_device_sec = step_sec;
    window.no_call_reason = NoCallReason::kNotNeeded;
    window.alerts.assign(
        engine.transitions().end() - static_cast<std::ptrdiff_t>(made),
        engine.transitions().end());
    record.iterations.push_back(window);
  }
  EXPECT_EQ(engine.evaluations(), static_cast<std::uint64_t>(kSoakSeconds));

  // The injected step tripped both default watchdogs...
  EXPECT_TRUE(engine.ever_fired("track_latency_step"));
  EXPECT_TRUE(engine.ever_fired("edge_iteration_burn"));
  EXPECT_FALSE(engine.ever_fired("initial_response_burn"));  // healthy SLO

  // ...at the right instants: both within a debounce of the step.
  double ewma_fired_at = -1.0;
  double burn_fired_at = -1.0;
  for (const obs::AlertTransition& transition : engine.transitions()) {
    if (!transition.firing) {
      continue;
    }
    if (transition.rule == "track_latency_step" && ewma_fired_at < 0.0) {
      ewma_fired_at = transition.t_sec;
    }
    if (transition.rule == "edge_iteration_burn" && burn_fired_at < 0.0) {
      burn_fired_at = transition.t_sec;
    }
  }
  EXPECT_GE(ewma_fired_at, kStepAtSec);
  EXPECT_LE(ewma_fired_at, kStepAtSec + 10.0);
  EXPECT_GE(burn_fired_at, kStepAtSec);
  EXPECT_LE(burn_fired_at, kStepAtSec + 10.0);
  // The EWMA alert self-resolves once the step becomes the new normal.
  EXPECT_FALSE(engine.transitions().back().firing &&
               engine.transitions().back().rule == "track_latency_step");

  // Firing left alert counters in the registry and alert spans.
  EXPECT_GE(registry.counter("emap_alerts_fired_total",
                             {{"rule", "track_latency_step"}})
                .value(),
            1u);
  EXPECT_GE(tracer.size(), 2u);

  // Offline reconstruction: export the 7,200-window record, reload it,
  // and the CUSUM pass finds the changepoint within ±2 windows of the
  // injected step.
  std::ofstream(dir.path() / "record.jsonl") << iterations_jsonl(record);
  const obs::SeriesLoadResult loaded =
      obs::load_record_jsonl(dir.path() / "record.jsonl");
  EXPECT_EQ(loaded.skipped_lines, 0u);
  const obs::LoadedSeries* loaded_step = nullptr;
  for (const obs::LoadedSeries& series : loaded.series) {
    if (series.key == "track_device_sec") {
      loaded_step = &series;
    }
  }
  ASSERT_NE(loaded_step, nullptr);
  ASSERT_EQ(loaded_step->buckets.size(),
            static_cast<std::size_t>(kSoakSeconds));
  const obs::Changepoint cp = obs::cusum_changepoint(loaded_step->buckets);
  ASSERT_TRUE(cp.found);
  EXPECT_GE(cp.t_sec, kStepAtSec - 2.0);
  EXPECT_LE(cp.t_sec, kStepAtSec + 2.0);
  EXPECT_NEAR(cp.shift, kSteppedTrack - kBaselineTrack, 0.1);

  // The record carries every transition, at its window; the rendered
  // report ties it together (rule names + changepoint rows).
  ASSERT_EQ(loaded.alerts.size(), engine.transitions().size());
  EXPECT_GE(loaded.alerts.size(), 3u);
  for (std::size_t i = 0; i < loaded.alerts.size(); ++i) {
    EXPECT_EQ(loaded.alerts[i].rule, engine.transitions()[i].rule);
    EXPECT_EQ(loaded.alerts[i].firing, engine.transitions()[i].firing);
    EXPECT_EQ(loaded.alerts[i].t_sec, engine.transitions()[i].t_sec);
  }
  const std::string report = obs::render_ascii_report(loaded, "track_device");
  EXPECT_NE(report.find("changepoint"), std::string::npos);
  EXPECT_NE(report.find("track_latency_step"), std::string::npos);
}

TEST(Soak, PipelineEvaluatesAlertsUnderFaults) {
  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  options.fault.up.drop = 0.2;
  options.fault.seed = 99;
  const auto result =
      EmapPipeline(emap::testing::small_mdb(4), EmapConfig{}, options)
          .run(seizure_input(21));

  ASSERT_NE(result.alerts, nullptr);
  // One evaluation per window, and every built-in rule found its series.
  EXPECT_EQ(result.alerts->evaluations(), result.iterations.size());
  for (std::size_t i = 0; i < obs::AlertEngine::kRuleCount; ++i) {
    EXPECT_TRUE(result.alerts->status(i).ever_evaluated) << "rule " << i;
  }
  // A healthy short run fires nothing.
  EXPECT_EQ(result.alerts->firing_count(), 0u);
}

TEST(Soak, IdenticalSeededRunsExportBitIdenticalTelemetry) {
  auto run_once = [] {
    obs::MetricsRegistry registry;
    PipelineOptions options;
    options.metrics = &registry;
    options.edge_device = slowed_edge();
    options.fault.up.drop = 0.1;
    options.fault.seed = 7;
    return iterations_jsonl(
        EmapPipeline(emap::testing::small_mdb(4), EmapConfig{}, options)
            .run(seizure_input(31)));
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);  // record JSONL bit-identical, alerts included
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("\"alert_"), std::string::npos);
}

TEST(Soak, AlertingIsAPureObserverOfTheRun) {
  // The rules run whenever a metrics registry is set.
  auto run_with = [](bool alerting) {
    obs::MetricsRegistry registry;
    PipelineOptions options;
    options.metrics = alerting ? &registry : nullptr;
    options.edge_device = slowed_edge();
    return EmapPipeline(emap::testing::small_mdb(4), EmapConfig{}, options)
        .run(seizure_input(41));
  };
  auto with_alerts = run_with(true);
  const auto without_alerts = run_with(false);

  // No alerting = no engine; with it, transitions happened — and the run
  // itself is untouched by the observer: its record differs only in the
  // alert fields.
  EXPECT_EQ(without_alerts.alerts, nullptr);
  ASSERT_NE(with_alerts.alerts, nullptr);
  EXPECT_FALSE(with_alerts.alerts->transitions().empty());
  EXPECT_EQ(with_alerts.pa_history(), without_alerts.pa_history());
  for (IterationRecord& r : with_alerts.iterations) {
    r.alerts.clear();
  }
  EXPECT_EQ(iterations_jsonl(with_alerts), iterations_jsonl(without_alerts));
  EXPECT_EQ(with_alerts.first_alarm_sec, without_alerts.first_alarm_sec);
  EXPECT_EQ(with_alerts.timings.delta_initial_sec,
            without_alerts.timings.delta_initial_sec);
}

}  // namespace
}  // namespace emap::core
