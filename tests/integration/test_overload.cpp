// Chaos integration suite for the adaptive overload control loop.
//
// The centerpiece drives the full pipeline through an engineered overload:
// an edge device whose per-signal bookkeeping makes the full top-100
// tracked set blow the 1 s budget (but a shed top-50 fit comfortably), a
// lossy cloud link, and an electrode-pop artifact burst.  The run must
// degrade, shed, exclude the artifacts, and return to NOMINAL with zero
// deadline misses after stabilization.  Satellite scenarios cover the
// clean-run bit-identity contract, the watchdog's CRITICAL escape hatch,
// per-run counter reset on a reused pipeline, and the breaker under
// permanent outage.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "emap/core/pipeline.hpp"
#include "emap/obs/export.hpp"
#include "emap/sim/device.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

constexpr std::size_t kWindow = 256;

synth::Recording seizure_input(std::uint64_t seed, double duration,
                               double onset) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = duration;
  spec.onset_sec = onset;
  return synth::make_eval_input(spec);
}

/// Calibrated overload: with delta = -0.5 every scanned offset is a search
/// candidate, so the cloud delivers the full top-100 correlation set, and
/// with delta_area relaxed the set never decays — tracking cost is pure,
/// deterministic per-signal overhead.  At 12 ms per signal the full set
/// costs 1.2 s (a hard miss) while the level-1 shed set of 50 costs 0.6 s,
/// safely below the 0.8 s near-miss band.
EmapConfig overload_config() {
  EmapConfig config;
  config.delta = -0.5;
  config.delta_area = 50000.0;
  return config;
}

sim::DeviceProfile overload_edge() {
  sim::DeviceProfile profile = sim::edge_raspberry_pi();
  profile.name = "overload-edge";
  profile.per_signal_overhead_sec = 0.012;
  return profile;
}

/// ~1000x slower than the calibrated Pi: one track step exceeds the
/// watchdog's stuck threshold (5x the 1 s budget), not just the budget.
sim::DeviceProfile glacial_edge() {
  sim::DeviceProfile profile = sim::edge_raspberry_pi();
  profile.name = "glacial";
  profile.mac_ops_per_sec /= 1000.0;
  profile.abs_ops_per_sec /= 1000.0;
  profile.per_signal_overhead_sec *= 1000.0;
  return profile;
}

/// Electrode pops (+60 uV on every 4th sample) across windows [30, 33):
/// the quality gate must classify these as artifacts and exclude them.
void inject_artifact_burst(synth::Recording& input) {
  for (std::size_t w = 30; w < 33; ++w) {
    for (std::size_t i = 0; i < 16; ++i) {
      input.samples[w * kWindow + i * 4] += 60.0;
    }
  }
}

PipelineOptions chaos_options() {
  PipelineOptions options;
  options.fault.up.drop = 0.3;
  options.fault.down.drop = 0.3;
  options.fault.seed = 4;  // first cloud call needs a retry with this seed
  options.edge_device = overload_edge();
  return options;
}

TEST(Overload, ChaosRunDegradesShedsAndRecoversToNominal) {
  synth::Recording input = seizure_input(11, 60.0, 50.0);
  inject_artifact_burst(input);

  obs::MetricsRegistry registry;
  PipelineOptions options = chaos_options();
  options.metrics = &registry;
  EmapPipeline pipeline(testing::small_mdb(6), overload_config(), options);
  const RunResult result = pipeline.run(input);

  // The full top-100 set missed the budget, the controller entered
  // DEGRADED and shed, and the lighter set carried the rest of the run
  // back to (and through) NOMINAL.
  EXPECT_TRUE(result.robust.degrade.entered_degraded);
  EXPECT_GE(result.robust.degrade.max_shed_level, 1u);
  EXPECT_EQ(result.robust.degrade.final_state,
            robust::DegradeState::kNominal);
  EXPECT_EQ(result.robust.critical_windows, 0u);
  EXPECT_EQ(result.robust.watchdog_trips, 0u);

  // The lossy link was really exercised and survived.
  EXPECT_GE(result.cloud_calls, 1u);
  EXPECT_GE(result.retry_attempts, 1u);
  EXPECT_EQ(result.failed_cloud_calls, 0u);

  // The artifact burst was gated: those windows ran no tracking step and
  // the quality summary attributes them.
  EXPECT_EQ(result.robust.quality.artifact, 3u);
  for (std::size_t w = 30; w < 33; ++w) {
    const IterationRecord& record = result.iterations[w];
    EXPECT_EQ(record.quality, robust::QualityVerdict::kArtifact) << w;
    EXPECT_FALSE(record.tracked) << w;
  }

  // Stability after the incident: once the shed set is in place (a few
  // windows after the single overload miss) every tracked window stays
  // inside the budget, P_A is always finite and in range, and the run
  // ends NOMINAL.
  std::size_t misses_after_stabilization = 0;
  for (const IterationRecord& record : result.iterations) {
    EXPECT_TRUE(std::isfinite(record.anomaly_probability));
    EXPECT_GE(record.anomaly_probability, 0.0);
    EXPECT_LE(record.anomaly_probability, 1.0);
    if (record.window_index >= 5 && record.tracked &&
        record.track_device_sec > 1.0) {
      ++misses_after_stabilization;
    }
  }
  EXPECT_EQ(misses_after_stabilization, 0u);
  const IterationRecord& last = result.iterations.back();
  EXPECT_EQ(last.robust_state, robust::DegradeState::kNominal);

  // Observability: state gauge back at 0, every transition recorded, and
  // the deferred telemetry flushed by run end.
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("emap_robust_state 0"), std::string::npos);
  EXPECT_NE(text.find("emap_robust_transitions_total{from=\"nominal\","
                      "to=\"degraded\"} 1"),
            std::string::npos);
  EXPECT_GE(result.robust.deferred_flushes, 1u);
}

TEST(Overload, CleanRunNeverLeavesNominal) {
  // The robust loop is always on, and on a clean default run it never
  // acts: every window runs NOMINAL with nothing shed, gated or turned
  // away.  (SessionGolden.CleanRun pins that run's P_A trajectory.)
  const synth::Recording input = seizure_input(11, 25.0, 20.0);
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{},
                        PipelineOptions{});
  const RunResult result = pipeline.run(input);

  ASSERT_FALSE(result.iterations.empty());
  for (const IterationRecord& record : result.iterations) {
    EXPECT_EQ(record.robust_state, robust::DegradeState::kNominal)
        << "window " << record.window_index;
    EXPECT_EQ(record.shed_cap, 0u) << "window " << record.window_index;
    EXPECT_EQ(record.quality, robust::QualityVerdict::kGood)
        << "window " << record.window_index;
    EXPECT_FALSE(record.breaker_rejected)
        << "window " << record.window_index;
    EXPECT_FALSE(record.robust_critical)
        << "window " << record.window_index;
  }
  EXPECT_FALSE(result.robust.degrade.entered_degraded);
  EXPECT_EQ(result.robust.degrade.transitions, 0u);
  EXPECT_EQ(result.robust.degrade.max_shed_level, 0u);
  EXPECT_EQ(result.robust.quality.bad(), 0u);
  EXPECT_EQ(result.robust.breaker.opens, 0u);
  EXPECT_EQ(result.robust.breaker.rejected, 0u);
  EXPECT_EQ(result.robust.shed_loads, 0u);
  EXPECT_EQ(result.robust.critical_windows, 0u);
  EXPECT_EQ(result.robust.deferred_flushes, 0u);
}

TEST(Overload, WatchdogForcesCriticalOnGlacialEdge) {
  PipelineOptions options;
  options.edge_device = glacial_edge();
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const RunResult result = pipeline.run(seizure_input(11, 25.0, 20.0));

  // One glacial track step crosses 5x budget: the watchdog trips and the
  // controller jumps straight to CRITICAL, after which windows serve the
  // last-known P_A without tracking.
  EXPECT_GE(result.robust.watchdog_trips, 1u);
  EXPECT_GT(result.robust.critical_windows, 0u);
  bool saw_critical_serving = false;
  double last_pa = 0.0;
  for (const IterationRecord& record : result.iterations) {
    if (record.robust_critical) {
      saw_critical_serving = true;
      EXPECT_FALSE(record.tracked);
      EXPECT_EQ(record.anomaly_probability, last_pa);
    }
    last_pa = record.anomaly_probability;
  }
  EXPECT_TRUE(saw_critical_serving);
}

TEST(Overload, RobustCountersResetBetweenRunsOnReusedPipeline) {
  synth::Recording input = seizure_input(11, 60.0, 50.0);
  inject_artifact_burst(input);
  EmapPipeline pipeline(testing::small_mdb(6), overload_config(),
                        chaos_options());

  const RunResult first = pipeline.run(input);
  const RunResult second = pipeline.run(input);

  // Runs are independent: the second run re-degrades from scratch and its
  // robust summary matches the first bit for bit instead of accumulating.
  EXPECT_TRUE(first.robust.degrade.entered_degraded);
  EXPECT_EQ(first.robust.degrade.transitions,
            second.robust.degrade.transitions);
  EXPECT_EQ(first.robust.degrade.max_shed_level,
            second.robust.degrade.max_shed_level);
  EXPECT_EQ(first.robust.degrade.windows_nominal,
            second.robust.degrade.windows_nominal);
  EXPECT_EQ(first.robust.degrade.windows_degraded,
            second.robust.degrade.windows_degraded);
  EXPECT_EQ(first.robust.quality.artifact, second.robust.quality.artifact);
  EXPECT_EQ(first.robust.breaker.opens, second.robust.breaker.opens);
  EXPECT_EQ(first.robust.deferred_flushes, second.robust.deferred_flushes);
  EXPECT_EQ(first.robust.shed_loads, second.robust.shed_loads);
  ASSERT_EQ(first.iterations.size(), second.iterations.size());
  for (std::size_t i = 0; i < first.iterations.size(); ++i) {
    EXPECT_EQ(first.iterations[i].robust_state,
              second.iterations[i].robust_state)
        << "window " << i;
    EXPECT_EQ(first.iterations[i].anomaly_probability,
              second.iterations[i].anomaly_probability)
        << "window " << i;
  }
}

TEST(Overload, BreakerOpensUnderPermanentOutageAndRunSurvives) {
  PipelineOptions options;
  options.fault.down.drop = 1.0;  // no response ever arrives
  options.retry.max_attempts = 2;
  options.retry.deadline_sec = net::kMaxTimeoutSec;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  const RunResult result = pipeline.run(seizure_input(3, 20.0, 15.0));

  // Every cloud call fails, the breaker opens, and subsequent windows are
  // short-circuited instead of burning retry budget.
  EXPECT_GT(result.failed_cloud_calls, 0u);
  EXPECT_GE(result.robust.breaker.opens, 1u);
  EXPECT_GT(result.robust.breaker.rejected, 0u);
  bool saw_rejected_window = false;
  for (const IterationRecord& record : result.iterations) {
    saw_rejected_window |= record.breaker_rejected;
    EXPECT_TRUE(std::isfinite(record.anomaly_probability));
  }
  EXPECT_TRUE(saw_rejected_window);
  EXPECT_EQ(result.iterations.size(), 20u);  // the run completed
}

}  // namespace
}  // namespace emap::core
