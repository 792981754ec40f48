// Streaming soak: two simulated hours on the threaded scheduler with the
// network fault injector, deterministic stage faults (stalls + crashes),
// and an armed crash point all active at once.  The run must complete with
// every injected fault recovered by the supervisor, queue depths bounded
// by their configured capacities, and the telemetry and decision-record
// artifacts intact.
//
// This suite runs real threads; it is part of the ASan/TSan CI jobs and
// the streaming soak-smoke job (which re-runs it with artifact export).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "emap/core/pipeline.hpp"
#include "emap/core/stream.hpp"
#include "emap/obs/alert.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/robust/crashpoint.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

constexpr double kSoakSeconds = 7200.0;  // two simulated hours

synth::Recording seizure_input(std::uint64_t seed, double duration,
                               double onset) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = duration;
  spec.onset_sec = onset;
  return synth::make_eval_input(spec);
}

const robust::StageQueueSummary* find_stage(const RunResult& result,
                                            const std::string& name) {
  for (const robust::StageQueueSummary& row : result.robust.stages) {
    if (row.stage == name) {
      return &row;
    }
  }
  return nullptr;
}

TEST(StreamSoak, TwoVirtualHoursThreadedUnderFaultsAndStageFailures) {
  emap::testing::TempDir dir("stream_soak");
  const synth::Recording input = seizure_input(17, kSoakSeconds, 7150.0);

  obs::MetricsRegistry registry;
  robust::CrashPointRegistry crashpoints;
  // One in-process crash mid-run, on top of the stage faults below: the
  // supervisor must treat an InjectedCrash like any other stage death.
  robust::ScopedCrashSchedule crash_guard(
      crashpoints, {"pipeline_tracker_step", 5000},
      robust::CrashAction::kThrow);

  PipelineOptions options;
  options.metrics = &registry;
  options.record_path = dir.path() / "record.jsonl";
  options.crashpoints = &crashpoints;
  options.fault.up.drop = 0.05;
  options.fault.down.drop = 0.05;
  options.fault.seed = 23;
  EmapPipeline engine(testing::small_mdb(4), EmapConfig{}, options);

  StreamOptions stream_options;
  stream_options.stage_threads = 2;
  stream_options.queue_capacity = 8;
  // Stall timeout must exceed one wall-clock cloud search (no heartbeat is
  // possible inside the search, and sanitizers slow it 10-20x).
  stream_options.supervisor.poll_interval_sec = 0.01;
  stream_options.supervisor.stall_timeout_sec = 2.0;
  stream_options.supervisor.max_restarts = 6;
  stream_options.faults.push_back(
      {"filter", 1000, StageFaultSpec::Kind::kStall, 10.0});
  stream_options.faults.push_back(
      {"track", 2500, StageFaultSpec::Kind::kCrash, 10.0});
  stream_options.faults.push_back(
      {"uplink0", 2, StageFaultSpec::Kind::kCrash, 10.0});
  StreamPipeline stream(engine, stream_options);
  const RunResult result = stream.run(input);

  // The run survived to the end of the input: every injected fault was
  // recovered, losing at most the in-flight item per stall/crash.
  EXPECT_TRUE(result.robust.streamed);
  EXPECT_GE(result.iterations.size(),
            static_cast<std::size_t>(kSoakSeconds) - 5);
  EXPECT_LE(result.iterations.size(), static_cast<std::size_t>(kSoakSeconds));
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    ASSERT_GT(result.iterations[i].window_index,
              result.iterations[i - 1].window_index);
  }

  // Supervisor scoreboard: the stall was detected and aborted, both
  // crashes (stage fault + crash point) restarted, and no stage ran out
  // of restart budget.
  EXPECT_GE(result.robust.supervisor_stalls, 1u);
  EXPECT_GE(result.robust.supervisor_crashes, 2u);
  EXPECT_GE(result.robust.supervisor_restarts, 3u);
  for (const char* stage :
       {"acquire", "filter", "track", "predict", "uplink0", "uplink1"}) {
    const robust::StageQueueSummary* row = find_stage(result, stage);
    ASSERT_NE(row, nullptr) << stage;
    EXPECT_FALSE(row->failed) << stage;
  }
  const robust::StageQueueSummary* filter = find_stage(result, "filter");
  EXPECT_GE(filter->stalls, 1u);
  EXPECT_GE(find_stage(result, "track")->crashes, 1u);
  EXPECT_GE(find_stage(result, "uplink0")->crashes, 1u);

  // Bounded queues: two hours of sustained load never pushed any queue
  // past its configured bound.
  for (const char* queue :
       {"q_raw", "q_filtered", "q_uplink", "q_deliver", "q_outcome"}) {
    const robust::StageQueueSummary* row = find_stage(result, queue);
    ASSERT_NE(row, nullptr) << queue;
    EXPECT_LE(row->queue_max_depth, row->queue_capacity) << queue;
  }

  // The lossy link was really exercised and the cloud loop still closed.
  EXPECT_GE(result.cloud_calls, 1u);
  EXPECT_GE(result.retry_attempts, 1u);

  // Alerts were evaluated once per recorded window, and the predict stage
  // streamed one record line per recorded window, stage restarts and all.
  ASSERT_NE(result.alerts, nullptr);
  EXPECT_EQ(result.alerts->evaluations(), result.iterations.size());
  std::ifstream record(options.record_path);
  std::size_t lines = 0;
  for (std::string line; std::getline(record, line);) {
    ++lines;
  }
  EXPECT_EQ(lines, result.iterations.size());
}

}  // namespace
}  // namespace emap::core
