// The per-window decision record says why each window did or did not call
// the cloud.  One seeded run per reason: a cold start waiting on its
// first search, a dead downlink that opens the breaker, a NaN window the
// quality gate excludes, and a slowed edge that forces CRITICAL.  Every
// run also keeps the record's basic contract: a call was issued exactly
// when the reason is `none`.  The streamed file holds exactly the
// formatted records, on both schedulers, and a crash leaves the lines of
// every window that finished.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/core/stream.hpp"
#include "emap/robust/crashpoint.hpp"
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

std::vector<std::string> lines_of(std::istream&& in) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> file_lines(const std::filesystem::path& path) {
  return lines_of(std::ifstream(path));
}

std::vector<std::string> record_lines(const RunResult& result) {
  return lines_of(std::istringstream(iterations_jsonl(result)));
}

std::size_t count_reason(const RunResult& result, NoCallReason reason) {
  std::size_t count = 0;
  for (const IterationRecord& record : result.iterations) {
    EXPECT_EQ(record.cloud_call_issued,
              record.no_call_reason == NoCallReason::kNone)
        << "window " << record.window_index;
    count += record.no_call_reason == reason ? 1 : 0;
  }
  return count;
}

TEST(DecisionRecord, ColdStartWaitsOnTheFirstSearch) {
  // Every upload held back 2.5-3 s on the link, so the initial search
  // spans several windows (a delayed message still arrives: no retry).
  PipelineOptions options;
  options.fault.up.delay = 1.0;
  options.fault.up.delay_min_sec = 2.5;
  options.fault.up.delay_max_sec = 3.0;
  // H = 1: once a set is loaded, the tracker asks again only when it has
  // lost every signal.
  EmapConfig config;
  config.tracking_threshold_h = 1;
  EmapPipeline pipeline(testing::small_mdb(4), config, options);
  const RunResult result = pipeline.run(seizure_input(21, 30.0, 20.0));
  ASSERT_GE(result.iterations.size(), 3u);
  EXPECT_EQ(result.iterations[0].no_call_reason, NoCallReason::kNone);
  std::size_t first_load = 0;
  while (first_load < result.iterations.size() &&
         !result.iterations[first_load].set_loaded) {
    ++first_load;
  }
  ASSERT_LT(first_load, result.iterations.size());
  ASSERT_GE(first_load, 2u);  // the initial search spans windows
  EXPECT_EQ(result.iterations[first_load].loaded_sequence, 0);
  for (std::size_t w = 1; w < first_load; ++w) {
    EXPECT_EQ(result.iterations[w].no_call_reason, NoCallReason::kInFlight)
        << "window " << w;
  }
  // Once tracking, windows did not need the cloud.
  EXPECT_GT(count_reason(result, NoCallReason::kNotNeeded), 0u);
}

TEST(DecisionRecord, OpenBreakerIsTheReasonUnderPermanentOutage) {
  PipelineOptions options;
  options.fault.down.drop = 1.0;  // no response ever arrives
  options.retry.max_attempts = 2;
  options.retry.deadline_sec = net::kMaxTimeoutSec;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  const RunResult result = pipeline.run(seizure_input(3, 20.0, 15.0));
  ASSERT_GT(result.robust.breaker.rejected, 0u);
  EXPECT_GT(count_reason(result, NoCallReason::kBreakerOpen), 0u);
  for (const IterationRecord& record : result.iterations) {
    EXPECT_EQ(record.breaker_rejected,
              record.no_call_reason == NoCallReason::kBreakerOpen);
    EXPECT_FALSE(record.set_loaded);
  }
}

TEST(DecisionRecord, QualityGatedWindowIssuesNoCall) {
  synth::Recording input = seizure_input(5, 30.0, 25.0);
  constexpr std::size_t kGated = 12;
  input.samples[kGated * kWindow + 7] =
      std::numeric_limits<double>::quiet_NaN();
  PipelineOptions options;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  const RunResult result = pipeline.run(input);
  ASSERT_GT(result.iterations.size(), kGated);
  const IterationRecord& gated = result.iterations[kGated];
  EXPECT_EQ(gated.quality, robust::QualityVerdict::kNan);
  EXPECT_EQ(gated.no_call_reason, NoCallReason::kQualityGated);
  EXPECT_FALSE(gated.tracked);
  EXPECT_EQ(count_reason(result, NoCallReason::kQualityGated),
            result.robust.quality.bad());
}

TEST(DecisionRecord, CriticalWindowsSayCritical) {
  // The slowed edge of the robust golden run: the full set trips the
  // watchdog, which forces CRITICAL.
  EmapConfig config;
  config.delta = -0.5;
  sim::DeviceProfile edge = sim::edge_raspberry_pi();
  edge.name = "slowed-edge";
  edge.per_signal_overhead_sec = 0.05;
  PipelineOptions options;
  options.edge_device = edge;
  EmapPipeline pipeline(testing::small_mdb(4), config, options);
  const RunResult result = pipeline.run(seizure_input(11, 60.0, 45.0));
  ASSERT_GE(result.robust.critical_windows, 1u);
  EXPECT_EQ(count_reason(result, NoCallReason::kCritical),
            result.robust.critical_windows);
  for (const IterationRecord& record : result.iterations) {
    EXPECT_EQ(record.robust_critical,
              record.no_call_reason == NoCallReason::kCritical);
  }
}

TEST(DecisionRecord, StreamedFileMatchesRunResult) {
  // An edge slow enough to burn its SLO, so the lines carry alert
  // transitions too.
  sim::DeviceProfile edge = sim::edge_raspberry_pi();
  edge.name = "slowed-edge";
  edge.mac_ops_per_sec /= 50.0;
  edge.abs_ops_per_sec /= 50.0;
  edge.per_signal_overhead_sec *= 50.0;
  testing::TempDir dir("decision_record_stream");
  for (const bool threaded : {false, true}) {
    const std::string label = threaded ? "threaded" : "batch";
    obs::MetricsRegistry registry;
    PipelineOptions options;
    options.metrics = &registry;
    options.edge_device = edge;
    options.fault.up.drop = 0.1;
    options.fault.seed = 7;
    options.record_path = dir.path() / (label + ".jsonl");
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
    const synth::Recording input = seizure_input(31, 40.0, 35.0);
    RunResult result;
    if (threaded) {
      StreamPipeline stream(pipeline);
      result = stream.run(input);
    } else {
      result = pipeline.run(input);
    }
    const std::vector<std::string> expected = record_lines(result);
    ASSERT_EQ(expected.size(), result.iterations.size()) << label;
    EXPECT_EQ(file_lines(options.record_path), expected) << label;
    if (!threaded) {
      // The batch run is seeded end to end, so its transitions are fixed;
      // the threaded run's depend on thread timing.
      std::size_t alerts = 0;
      for (const IterationRecord& record : result.iterations) {
        alerts += record.alerts.size();
      }
      EXPECT_GT(alerts, 0u);
    }
  }
}

TEST(DecisionRecord, CrashPointLeavesCompletedPrefix) {
  // The uninterrupted run's record, then the same run thrown out at the
  // k-th window end: the file keeps exactly the k windows that finished,
  // each line as the uninterrupted run wrote it.
  constexpr std::size_t kCrashAt = 7;
  testing::TempDir dir("decision_record_crash");
  PipelineOptions options;
  options.fault.up.drop = 0.2;
  options.fault.seed = 11;
  options.record_path = dir.path() / "reference.jsonl";
  const std::vector<std::string> reference = record_lines(
      EmapPipeline(testing::small_mdb(4), EmapConfig{}, options)
          .run(seizure_input(21, 30.0, 20.0)));
  ASSERT_GT(reference.size(), kCrashAt);
  EXPECT_EQ(file_lines(options.record_path), reference);

  robust::CrashPointRegistry registry;
  options.crashpoints = &registry;
  options.record_path = dir.path() / "crashed.jsonl";
  {
    robust::ScopedCrashSchedule guard(registry,
                                      {"pipeline_window_end", kCrashAt});
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
    EXPECT_THROW(pipeline.run(seizure_input(21, 30.0, 20.0)),
                 robust::InjectedCrash);
  }
  const std::vector<std::string> crashed = file_lines(options.record_path);
  ASSERT_EQ(crashed.size(), kCrashAt);
  EXPECT_TRUE(std::equal(crashed.begin(), crashed.end(), reference.begin()));
}

TEST(DecisionRecord, ReasonNamesAreStable) {
  EXPECT_STREQ(no_call_reason_name(NoCallReason::kNone), "none");
  EXPECT_STREQ(no_call_reason_name(NoCallReason::kCritical), "critical");
  EXPECT_STREQ(no_call_reason_name(NoCallReason::kQualityGated),
               "quality_gated");
  EXPECT_STREQ(no_call_reason_name(NoCallReason::kInFlight), "in_flight");
  EXPECT_STREQ(no_call_reason_name(NoCallReason::kNotNeeded), "not_needed");
  EXPECT_STREQ(no_call_reason_name(NoCallReason::kBreakerOpen),
               "breaker_open");
  EXPECT_STREQ(no_call_reason_name(NoCallReason::kStopping), "stopping");
}

}  // namespace
}  // namespace emap::core
