// StreamPipeline: threaded stage-graph structural invariants, the reject of
// checkpointing pipelines, supervised recovery from injected stage crashes
// and stalls, and the watchdog-CRITICAL decision-record regression.  The
// threaded suites run real threads and are part of the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "emap/common/error.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/core/stream.hpp"
#include "emap/obs/export.hpp"
#include "emap/sim/device.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

synth::Recording seizure_input(std::uint64_t seed, double duration,
                               double onset) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = duration;
  spec.onset_sec = onset;
  return synth::make_eval_input(spec);
}

/// Threaded scheduler for the tests: the stall timeout must comfortably
/// exceed one wall-clock cloud search (a worker cannot heartbeat inside
/// executor_.issue, and sanitizer builds slow the search 10-20x) while
/// staying small enough that the injected-stall test resolves quickly.
StreamOptions threaded_options() {
  StreamOptions options;
  options.supervisor.poll_interval_sec = 0.01;
  options.supervisor.stall_timeout_sec = 2.0;
  return options;
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

TEST(StreamOptionsTest, ValidateRejectsBadKnobs) {
  StreamOptions options;
  options.stage_threads = 0;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = StreamOptions{};
  options.queue_capacity = 1;
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = StreamOptions{};
  options.faults.push_back({"", 1, StageFaultSpec::Kind::kStall, 1.0});
  EXPECT_THROW(options.validate(), InvalidArgument);
  options = StreamOptions{};
  options.faults.push_back({"track", 0, StageFaultSpec::Kind::kCrash, 1.0});
  EXPECT_THROW(options.validate(), InvalidArgument);
  EXPECT_NO_THROW(StreamOptions{}.validate());
}

// Checkpoint/resume runs only on the batch loop: a threaded scheduler over
// a checkpointing pipeline is rejected up front, never run without its
// snapshots.
TEST(Stream, RejectsRecoveryOptions) {
  testing::TempDir dir("stream_recovery_reject");
  PipelineOptions options;
  options.recovery.checkpoint_dir = dir.path();
  EmapPipeline engine(testing::small_mdb(6), EmapConfig{}, options);
  EXPECT_THROW(
      {
        StreamPipeline stream(engine, threaded_options());
        (void)stream.run(seizure_input(11, 5.0, 4.0));
      },
      InvalidArgument);
}

// Threaded clean run: every window flows through the whole stage graph
// exactly once and in order, the cloud loop closes, and the summary carries
// the per-stage supervision + queue columns.
TEST(Stream, ThreadedCleanRunProcessesEveryWindowInOrder) {
  const synth::Recording input = seizure_input(11, 25.0, 20.0);

  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  EmapPipeline engine(testing::small_mdb(6), EmapConfig{}, options);
  StreamPipeline stream(engine, threaded_options());
  const RunResult result = stream.run(input);

  ASSERT_EQ(result.iterations.size(), 25u);
  bool any_loaded = false;
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    EXPECT_EQ(result.iterations[i].window_index, i);
    any_loaded |= result.iterations[i].set_loaded;
  }
  EXPECT_TRUE(any_loaded);
  EXPECT_GE(result.cloud_calls, 1u);

  EXPECT_TRUE(result.robust.streamed);
  EXPECT_EQ(result.robust.supervisor_stalls, 0u);
  EXPECT_EQ(result.robust.supervisor_restarts, 0u);
  EXPECT_EQ(result.robust.supervisor_crashes, 0u);

  // Per-stage rows: every supervised stage plus one q_ row per queue.
  for (const char* stage :
       {"acquire", "filter", "track", "predict", "uplink0", "uplink1"}) {
    const robust::StageQueueSummary* row = find_stage(result, stage);
    ASSERT_NE(row, nullptr) << stage;
    EXPECT_FALSE(row->failed) << stage;
  }
  for (const char* queue :
       {"q_raw", "q_filtered", "q_uplink", "q_deliver", "q_outcome"}) {
    const robust::StageQueueSummary* row = find_stage(result, queue);
    ASSERT_NE(row, nullptr) << queue;
    EXPECT_GE(row->queue_capacity, 2u) << queue;
    EXPECT_LE(row->queue_max_depth, row->queue_capacity) << queue;
  }
  const robust::StageQueueSummary* track = find_stage(result, "track");
  ASSERT_NE(track, nullptr);
  EXPECT_EQ(track->processed, 25u);

  // Queue occupancy is exported as telemetry.
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("emap_stage_queue_depth"), std::string::npos);
}

// An injected crash in the track stage loses at most its in-flight window:
// the supervisor restarts the body, per-stage state survives (same tracker,
// same outstanding-call accounting), and the run completes.
TEST(Stream, ThreadedTrackStageCrashIsRecovered) {
  const synth::Recording input = seizure_input(11, 25.0, 20.0);

  PipelineOptions options;
  EmapPipeline engine(testing::small_mdb(6), EmapConfig{}, options);
  StreamOptions stream_options = threaded_options();
  stream_options.faults.push_back(
      {"track", 3, StageFaultSpec::Kind::kCrash, 1.0});
  StreamPipeline stream(engine, stream_options);
  const RunResult result = stream.run(input);

  EXPECT_GE(result.robust.supervisor_crashes, 1u);
  EXPECT_GE(result.robust.supervisor_restarts, 1u);
  const robust::StageQueueSummary* track = find_stage(result, "track");
  ASSERT_NE(track, nullptr);
  EXPECT_GE(track->crashes, 1u);
  EXPECT_FALSE(track->failed);

  // Exactly the window in flight at the crash is lost; order and
  // uniqueness of everything else survive the restart.
  ASSERT_EQ(result.iterations.size(), 24u);
  for (std::size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_GT(result.iterations[i].window_index,
              result.iterations[i - 1].window_index);
  }
}

// An injected stall (busy loop, no heartbeats) is detected by wall-clock
// supervision, aborted, and the stage restarted; backpressured neighbors
// (blocked on the full/empty queues around the stalled stage) are idle by
// contract and must not be misdiagnosed as stalled themselves.
TEST(Stream, ThreadedFilterStallIsDetectedAndRecovered) {
  const synth::Recording input = seizure_input(11, 25.0, 20.0);

  PipelineOptions options;
  EmapPipeline engine(testing::small_mdb(6), EmapConfig{}, options);
  StreamOptions stream_options = threaded_options();
  stream_options.faults.push_back(
      {"filter", 3, StageFaultSpec::Kind::kStall, 5.0});
  StreamPipeline stream(engine, stream_options);
  const RunResult result = stream.run(input);

  EXPECT_GE(result.robust.supervisor_stalls, 1u);
  EXPECT_GE(result.robust.supervisor_restarts, 1u);
  EXPECT_EQ(result.robust.supervisor_crashes, 0u);
  const robust::StageQueueSummary* filter = find_stage(result, "filter");
  ASSERT_NE(filter, nullptr);
  EXPECT_GE(filter->stalls, 1u);
  EXPECT_FALSE(filter->failed);
  for (const char* stage : {"acquire", "track", "predict"}) {
    const robust::StageQueueSummary* row = find_stage(result, stage);
    ASSERT_NE(row, nullptr) << stage;
    EXPECT_EQ(row->stalls, 0u) << stage;
  }
  // The stalled window is dropped on restart; the rest flow through.
  EXPECT_GE(result.iterations.size(), 24u);
}

// A watchdog trip that forces CRITICAL shows in the streamed decision
// record: the windows after it run, and say they ran, under CRITICAL.
TEST(Stream, WatchdogForcedCriticalShowsInTheRecord) {
  testing::TempDir dir("stream_record");
  const std::filesystem::path record_path = dir.path() / "record.jsonl";

  PipelineOptions options;
  options.record_path = record_path;
  sim::DeviceProfile glacial = sim::edge_raspberry_pi();
  glacial.name = "glacial";
  glacial.mac_ops_per_sec /= 1000.0;
  glacial.abs_ops_per_sec /= 1000.0;
  glacial.per_signal_overhead_sec *= 1000.0;
  options.edge_device = glacial;
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const RunResult result = pipeline.run(seizure_input(11, 25.0, 20.0));

  ASSERT_GE(result.robust.watchdog_trips, 1u);
  ASSERT_GE(result.robust.critical_windows, 1u);
  std::ifstream in(record_path);
  std::size_t lines = 0;
  std::size_t critical = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    if (line.find("\"robust_state\":\"critical\"") != std::string::npos) {
      EXPECT_NE(line.find("\"robust_critical\":true"), std::string::npos)
          << line;
      ++critical;
    }
  }
  EXPECT_EQ(lines, result.iterations.size());
  EXPECT_EQ(critical, result.robust.critical_windows);
}

}  // namespace
}  // namespace emap::core
