// Soak: hours of virtual time under the alerting stack and the decision
// record.
//
// The engine-level soak drives the exact series the built-in alert rules
// watch (emap_track_step_seconds:mean and the two SLO burn gauges)
// straight from a registry through 2+ simulated hours with a latency step
// injected late in the run, then asserts the whole closed loop: the EWMA
// and burn rules firing with a correlated flight dump, and the offline
// CUSUM report reconstructing the changepoint from a 7,200-window record
// within ±2 windows.  The pipeline-level soak runs the real EmapPipeline
// under the fault injector and pins down determinism (bit-identical record
// and alert JSONL across identical seeded runs) and that alerting is a
// pure observer of the run.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/obs/alert.hpp"
#include "emap/obs/dashboard.hpp"
#include "emap/obs/flight.hpp"
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
  obs::FlightRecorder flight(256);
  flight.set_dump_path(dir.path() / "flight.jsonl");

  obs::AlertEngine::Hooks hooks;
  hooks.registry = &registry;
  hooks.tracer = &tracer;
  hooks.flight = &flight;
  obs::AlertEngine engine(hooks);

  // One virtual second per iteration, exactly like the pipeline's window
  // cadence; each window's step time also goes into its record.
  // Deterministic wobble keeps the EWMA variance finite.
  RunResult record;
  for (double t = 1.0; t <= kSoakSeconds; t += 1.0) {
    const double wobble = 0.001 * std::sin(0.37 * t);
    const bool stepped = t >= kStepAtSec;
    const double step_sec = (stepped ? kSteppedTrack : kBaselineTrack) + wobble;
    track.observe(step_sec);
    edge_burn.set(stepped ? 3.0 : 0.2 + 0.05 * std::sin(0.11 * t));
    initial_burn.set(0.1);
    engine.evaluate(registry, t, static_cast<std::uint64_t>(t));
    IterationRecord window;
    window.window_index = record.iterations.size();
    window.t_sec = t;
    window.tracked = true;
    window.track_device_sec = step_sec;
    window.no_call_reason = NoCallReason::kNotNeeded;
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

  // Firing left a correlated flight dump: kAlert events in the ring, a
  // dump on disk, and alert counters in the registry.
  EXPECT_GE(flight.dumps_written(), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "flight.jsonl"));
  std::size_t alert_events = 0;
  for (const obs::FlightEvent& event : flight.snapshot()) {
    alert_events += event.type == obs::FlightEventType::kAlert ? 1 : 0;
  }
  EXPECT_GE(alert_events, 2u);
  EXPECT_GE(registry.counter("emap_alerts_fired_total",
                             {{"rule", "track_latency_step"}})
                .value(),
            1u);
  EXPECT_GE(tracer.size(), 2u);

  // Offline reconstruction: export the 7,200-window record, reload it,
  // and the CUSUM pass finds the changepoint within ±2 windows of the
  // injected step.
  write_iterations_jsonl(record, dir.path() / "record.jsonl");
  engine.write_jsonl(dir.path() / "alerts.jsonl");
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

  // The rendered report ties it together (rule names + changepoint rows).
  const obs::AlertLoadResult alerts =
      obs::load_alerts_jsonl(dir.path() / "alerts.jsonl");
  EXPECT_GE(alerts.transitions.size(), 3u);
  const std::string report =
      obs::render_ascii_report(loaded, alerts, "track_device");
  EXPECT_NE(report.find("changepoint"), std::string::npos);
  EXPECT_NE(report.find("track_latency_step"), std::string::npos);
}

TEST(Soak, PipelineEvaluatesAlertsUnderFaults) {
  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  options.alerts = true;
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
    options.alerts = true;
    options.edge_device = slowed_edge();
    options.fault.up.drop = 0.1;
    options.fault.seed = 7;
    const auto result =
        EmapPipeline(emap::testing::small_mdb(4), EmapConfig{}, options)
            .run(seizure_input(31));
    return std::pair<std::string, std::string>(iterations_jsonl(result),
                                               result.alerts->to_jsonl());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);    // record JSONL bit-identical
  EXPECT_EQ(first.second, second.second);  // alert JSONL bit-identical
  EXPECT_FALSE(first.first.empty());
  EXPECT_FALSE(first.second.empty());
}

TEST(Soak, AlertingIsAPureObserverOfTheRun) {
  auto run_with = [](bool alerting) {
    obs::MetricsRegistry registry;
    PipelineOptions options;
    options.metrics = &registry;
    options.edge_device = slowed_edge();
    options.alerts = alerting;
    return EmapPipeline(emap::testing::small_mdb(4), EmapConfig{}, options)
        .run(seizure_input(41));
  };
  const auto with_alerts = run_with(true);
  const auto without_alerts = run_with(false);

  // No alerting = no engine; with it, transitions happened — and the run
  // itself is untouched by the observer.
  EXPECT_EQ(without_alerts.alerts, nullptr);
  ASSERT_NE(with_alerts.alerts, nullptr);
  EXPECT_FALSE(with_alerts.alerts->transitions().empty());
  EXPECT_EQ(with_alerts.pa_history(), without_alerts.pa_history());
  EXPECT_EQ(iterations_jsonl(with_alerts), iterations_jsonl(without_alerts));
  EXPECT_EQ(with_alerts.first_alarm_sec, without_alerts.first_alarm_sec);
  EXPECT_EQ(with_alerts.timings.delta_initial_sec,
            without_alerts.timings.delta_initial_sec);
}

}  // namespace
}  // namespace emap::core
