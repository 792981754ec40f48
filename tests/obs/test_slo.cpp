#include "emap/obs/slo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "emap/obs/export.hpp"

namespace emap::obs {
namespace {

SloSpec test_spec() {
  SloSpec spec;
  spec.name = "test";
  spec.budget_sec = 1.0;
  spec.near_miss_fraction = 0.8;
  spec.target = 0.9;
  spec.burn_window = 10;
  return spec;
}

TEST(SloMonitor, ClassifiesOkNearMissAndDeadlineMiss) {
  SloMonitor monitor(test_spec());
  monitor.observe(0.5);   // ok
  monitor.observe(0.9);   // near miss (above 0.8 * budget, within budget)
  monitor.observe(1.5);   // deadline miss
  EXPECT_EQ(monitor.observations(), 3u);
  EXPECT_EQ(monitor.near_misses(), 1u);
  EXPECT_EQ(monitor.deadline_misses(), 1u);
}

TEST(SloMonitor, ExactlyAtBudgetIsNotAMiss) {
  SloMonitor monitor(test_spec());
  monitor.observe(1.0);
  EXPECT_EQ(monitor.deadline_misses(), 0u);
  EXPECT_EQ(monitor.near_misses(), 1u);  // 1.0 > 0.8, within budget
}

TEST(SloMonitor, BurnRateIsRollingMissRateOverErrorBudget) {
  SloMonitor monitor(test_spec());  // error budget 0.1, window 10
  for (int i = 0; i < 8; ++i) {
    monitor.observe(0.1);
  }
  monitor.observe(2.0);
  monitor.observe(2.0);
  // 2 misses in a 10-deep window: rolling miss rate 0.2 / budget 0.1 = 2.
  EXPECT_DOUBLE_EQ(monitor.burn_rate(), 2.0);
  EXPECT_FALSE(monitor.healthy());
}

TEST(SloMonitor, BurnWindowForgetsOldMisses) {
  SloMonitor monitor(test_spec());
  monitor.observe(2.0);  // miss
  for (int i = 0; i < 10; ++i) {
    monitor.observe(0.1);  // pushes the miss out of the window
  }
  EXPECT_DOUBLE_EQ(monitor.burn_rate(), 0.0);
  EXPECT_TRUE(monitor.healthy());
  // The lifetime counter is unaffected by the window.
  EXPECT_EQ(monitor.deadline_misses(), 1u);
}

TEST(SloMonitor, PerfectTargetBurnsInfinitelyOnAnyMiss) {
  SloSpec spec = test_spec();
  spec.target = 1.0;
  SloMonitor monitor(spec);
  monitor.observe(0.5);
  EXPECT_DOUBLE_EQ(monitor.burn_rate(), 0.0);
  monitor.observe(5.0);
  EXPECT_TRUE(std::isinf(monitor.burn_rate()));
  EXPECT_FALSE(monitor.healthy());
}

TEST(SloMonitor, NoObservationsIsHealthy) {
  SloMonitor monitor(test_spec());
  EXPECT_DOUBLE_EQ(monitor.burn_rate(), 0.0);
  EXPECT_TRUE(monitor.healthy());
}

TEST(SloMonitor, SurfacesEmapSloMetricFamilies) {
  MetricsRegistry registry;
  SloMonitor monitor(test_spec(), &registry);
  monitor.observe(0.5);
  monitor.observe(0.9);
  monitor.observe(1.5);
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("emap_slo_observations_total{slo=\"test\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("emap_slo_deadline_miss_total{slo=\"test\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("emap_slo_near_miss_total{slo=\"test\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("emap_slo_budget_seconds{slo=\"test\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("emap_slo_burn_rate{slo=\"test\"}"), std::string::npos);
  EXPECT_NE(text.find("emap_slo_latency_seconds_count{slo=\"test\"} 3"),
            std::string::npos);
}

TEST(SloMonitor, SummarySnapshotsEveryField) {
  SloMonitor monitor(test_spec());
  monitor.observe(0.5);
  monitor.observe(1.5);
  const SloSummary summary = monitor.summary();
  EXPECT_EQ(summary.name, "test");
  EXPECT_DOUBLE_EQ(summary.budget_sec, 1.0);
  EXPECT_DOUBLE_EQ(summary.target, 0.9);
  EXPECT_EQ(summary.observations, 2u);
  EXPECT_EQ(summary.deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(summary.miss_rate, 0.5);
  EXPECT_DOUBLE_EQ(summary.max_latency_sec, 1.5);
  EXPECT_GT(summary.p99_latency_sec, 0.0);
  EXPECT_GE(summary.p99_latency_sec, summary.p50_latency_sec);
}

TEST(SloSpecs, PaperBudgets) {
  EXPECT_EQ(edge_iteration_slo().name, "edge_iteration");
  EXPECT_DOUBLE_EQ(edge_iteration_slo().budget_sec, 1.0);
  EXPECT_EQ(initial_response_slo().name, "initial_response");
  EXPECT_DOUBLE_EQ(initial_response_slo().budget_sec, 3.0);
}

}  // namespace
}  // namespace emap::obs
