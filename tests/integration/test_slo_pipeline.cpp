// SLO monitoring through the pipeline: a default run meets the paper's
// budgets (zero deadline misses); the same run on a deliberately slowed
// edge device pushes every track step past the 1 s window and the misses
// surface in RunResult, the metrics registry, and the exported reports.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/obs/export.hpp"
#include "emap/sim/device.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

synth::Recording seizure_input(std::uint64_t seed, double duration = 25.0,
                               double onset = 20.0) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = duration;
  spec.onset_sec = onset;
  return synth::make_eval_input(spec);
}

/// An edge profile ~1000x slower than the calibrated Pi: every tracking
/// step blows the 1 s budget.
sim::DeviceProfile glacial_edge() {
  sim::DeviceProfile profile = sim::edge_raspberry_pi();
  profile.name = "glacial";
  profile.mac_ops_per_sec /= 1000.0;
  profile.abs_ops_per_sec /= 1000.0;
  profile.per_signal_overhead_sec *= 1000.0;
  return profile;
}

const obs::SloSummary* find_slo(const RunResult& result,
                                const std::string& name) {
  for (const auto& slo : result.slo) {
    if (slo.name == name) {
      return &slo;
    }
  }
  return nullptr;
}

TEST(SloPipeline, DefaultRunMeetsBothPaperBudgets) {
  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const auto result = pipeline.run(seizure_input(11));

  const auto* edge = find_slo(result, "edge_iteration");
  const auto* initial = find_slo(result, "initial_response");
  ASSERT_NE(edge, nullptr);
  ASSERT_NE(initial, nullptr);
  EXPECT_GT(edge->observations, 0u);
  EXPECT_EQ(edge->deadline_misses, 0u);
  EXPECT_GT(initial->observations, 0u);
  EXPECT_EQ(initial->deadline_misses, 0u);

  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(
      text.find("emap_slo_deadline_miss_total{slo=\"edge_iteration\"} 0"),
      std::string::npos);
  EXPECT_NE(
      text.find("emap_slo_deadline_miss_total{slo=\"initial_response\"} 0"),
      std::string::npos);
}

TEST(SloPipeline, SlowedEdgeDeviceMissesTheIterationDeadline) {
  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  options.edge_device = glacial_edge();
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const auto result = pipeline.run(seizure_input(11));

  const auto* edge = find_slo(result, "edge_iteration");
  ASSERT_NE(edge, nullptr);
  EXPECT_GT(edge->observations, 0u);
  EXPECT_GT(edge->deadline_misses, 0u);
  EXPECT_GT(edge->miss_rate, 0.0);
  EXPECT_GT(edge->max_latency_sec, 1.0);

  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("emap_slo_deadline_miss_total{slo=\"edge_iteration\"}"),
            std::string::npos);
  EXPECT_EQ(
      text.find("emap_slo_deadline_miss_total{slo=\"edge_iteration\"} 0\n"),
      std::string::npos);
}

TEST(SloPipeline, SummariesLandInRunReportJson) {
  PipelineOptions options;
  options.edge_device = glacial_edge();
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const auto result = pipeline.run(seizure_input(11));
  const std::string json = run_summary_json(result);
  const std::string edge_key = "\"slo_edge_iteration_deadline_misses\":";
  const auto edge_at = json.find(edge_key);
  ASSERT_NE(edge_at, std::string::npos);
  EXPECT_NE(json.find("\"slo_initial_response_deadline_misses\":"),
            std::string::npos);
  // The slowed run must report its nonzero edge miss count.
  const auto* edge = find_slo(result, "edge_iteration");
  ASSERT_NE(edge, nullptr);
  EXPECT_GT(edge->deadline_misses, 0u);
  EXPECT_EQ(std::strtoull(json.c_str() + edge_at + edge_key.size(), nullptr,
                          10),
            edge->deadline_misses);
}

TEST(SloPipeline, MonitorsResetBetweenRuns) {
  PipelineOptions options;
  options.edge_device = glacial_edge();
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const auto first = pipeline.run(seizure_input(11, 12.0, 10.0));
  const auto second = pipeline.run(seizure_input(11, 12.0, 10.0));
  const auto* a = find_slo(first, "edge_iteration");
  const auto* b = find_slo(second, "edge_iteration");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Fresh monitors per run: an identical second run reports identical
  // counts, not a continuation of the first run's.
  EXPECT_GT(b->observations, 0u);
  EXPECT_EQ(b->observations, a->observations);
  EXPECT_EQ(b->deadline_misses, a->deadline_misses);
}

}  // namespace
}  // namespace emap::core
