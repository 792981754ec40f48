// Crash-recovery integration harness: for EVERY registered crash point,
// kill the pipeline mid-run (InjectedCrash), resume a fresh pipeline from
// the surviving snapshot, and assert the resumed run's P_A trajectory,
// alarm, and counters are bit-identical to an uninterrupted reference run
// on the same clean link.  Also covers the fingerprint guards (wrong
// config / wrong input), strict-vs-fallback semantics, and the checkpoint
// cadence.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/robust/checkpoint.hpp"
#include "emap/robust/crashpoint.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  static synth::Recording input(std::uint64_t seed = 21) {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kSeizure;
    spec.seed = seed;
    spec.duration_sec = 40.0;
    spec.onset_sec = 30.0;
    return synth::make_eval_input(spec);
  }

  static PipelineOptions base_options() {
    PipelineOptions options;
    options.collect_trace = false;
    return options;
  }

  static RunResult run_with(const PipelineOptions& options,
                            std::uint64_t input_seed = 21) {
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
    return pipeline.run(input(input_seed));
  }

  /// The resumed run must reproduce the reference run exactly on every
  /// window it executed, and land on the same final verdict and counters.
  static void expect_equivalent(const RunResult& resumed,
                                const RunResult& reference,
                                const std::string& label) {
    ASSERT_TRUE(resumed.robust.recovery.resumed) << label;
    ASSERT_FALSE(resumed.iterations.empty()) << label;
    EXPECT_EQ(resumed.iterations.front().window_index,
              resumed.robust.recovery.resume_window)
        << label;
    for (const IterationRecord& record : resumed.iterations) {
      ASSERT_LT(record.window_index, reference.iterations.size()) << label;
      const IterationRecord& ref = reference.iterations[record.window_index];
      ASSERT_EQ(ref.window_index, record.window_index) << label;
      EXPECT_TRUE(record.recovered) << label;
      // Bit-identical, not approximately equal: the snapshot restores the
      // exact doubles and RNG streams the crashed run held.
      EXPECT_EQ(record.anomaly_probability, ref.anomaly_probability)
          << label << " window " << record.window_index;
      EXPECT_EQ(record.t_sec, ref.t_sec)
          << label << " window " << record.window_index;
      EXPECT_EQ(record.tracked, ref.tracked) << label;
      EXPECT_EQ(record.set_loaded, ref.set_loaded) << label;
      EXPECT_EQ(record.tracked_after, ref.tracked_after) << label;
      EXPECT_EQ(record.cloud_call_issued, ref.cloud_call_issued) << label;
      EXPECT_EQ(record.degraded, ref.degraded) << label;
    }
    EXPECT_EQ(resumed.anomaly_predicted, reference.anomaly_predicted)
        << label;
    EXPECT_EQ(resumed.first_alarm_sec, reference.first_alarm_sec) << label;
    EXPECT_EQ(resumed.cloud_calls, reference.cloud_calls) << label;
    EXPECT_EQ(resumed.failed_cloud_calls, reference.failed_cloud_calls)
        << label;
    EXPECT_EQ(resumed.retry_attempts, reference.retry_attempts) << label;
    EXPECT_EQ(resumed.duplicates_discarded, reference.duplicates_discarded)
        << label;
    ASSERT_FALSE(resumed.pa_history().empty()) << label;
    EXPECT_EQ(resumed.pa_history().back(), reference.pa_history().back())
        << label;
  }
};

// Checkpointing reads state and writes files; it must not perturb the
// simulation itself.
TEST_F(RecoveryTest, CheckpointingIsBehaviorNeutral) {
  const RunResult plain = run_with(base_options());
  testing::TempDir dir("recovery_neutral");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  const RunResult checkpointed = run_with(options);
  ASSERT_EQ(checkpointed.iterations.size(), plain.iterations.size());
  for (std::size_t i = 0; i < plain.iterations.size(); ++i) {
    EXPECT_EQ(checkpointed.iterations[i].anomaly_probability,
              plain.iterations[i].anomaly_probability)
        << "window " << i;
  }
  EXPECT_EQ(checkpointed.first_alarm_sec, plain.first_alarm_sec);
  EXPECT_TRUE(checkpointed.robust.recovery.enabled);
  EXPECT_GT(checkpointed.robust.recovery.checkpoints_written, 0u);
  EXPECT_FALSE(checkpointed.robust.recovery.resumed);
}

// The acceptance criterion: crash at every registered point, resume, and
// land bit-identical to the uninterrupted run.
TEST_F(RecoveryTest, CrashAtEveryPointThenResumeMatchesUninterrupted) {
  const RunResult reference = run_with(base_options());
  ASSERT_GE(reference.cloud_calls, 2u)
      << "need a mid-run cloud call for the *_cloud_call points";
  for (const std::string& point : robust::crash_point_catalog()) {
    if (point.rfind("stream_", 0) == 0) {
      // Threaded-only points: the batch loop never reaches them (the
      // threaded matrix lives in test_stream_recovery.cpp).
      continue;
    }
    testing::TempDir dir("recovery_" + point);
    // Cloud-call points fire once per round trip (hit 2 = the first
    // re-call, mid-run); per-window and per-checkpoint points fire every
    // window (hit 7 = mid-run with checkpoints already on disk).
    const std::uint64_t hit =
        point.find("cloud_call") != std::string::npos ? 2 : 7;

    robust::CrashPointRegistry registry;
    PipelineOptions crash_options = base_options();
    crash_options.recovery.checkpoint_dir = dir.path();
    crash_options.crashpoints = &registry;
    {
      robust::ScopedCrashSchedule guard(registry, {point, hit});
      EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{},
                            crash_options);
      EXPECT_THROW(pipeline.run(input()), robust::InjectedCrash) << point;
    }
    ASSERT_TRUE(
        std::filesystem::exists(robust::checkpoint_path(dir.path())))
        << point;

    // A fresh pipeline (as a restarted process would build) resumes from
    // whatever snapshot survived the crash.
    PipelineOptions resume_options = base_options();
    resume_options.recovery.checkpoint_dir = dir.path();
    resume_options.recovery.resume = true;
    resume_options.recovery.strict = true;
    const RunResult resumed = run_with(resume_options);
    expect_equivalent(resumed, reference, point);
  }
}

TEST_F(RecoveryTest, ResumeAfterCleanCompletionReplaysOnlyTheLastWindowMark) {
  testing::TempDir dir("recovery_complete");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  const RunResult first = run_with(options);
  // The final snapshot says every window is done: the resumed run has
  // nothing to replay and reports the reference totals unchanged.
  options.recovery.resume = true;
  const RunResult resumed = run_with(options);
  EXPECT_TRUE(resumed.robust.recovery.resumed);
  EXPECT_EQ(resumed.robust.recovery.resume_window, first.iterations.size());
  EXPECT_TRUE(resumed.iterations.empty());
  EXPECT_EQ(resumed.anomaly_predicted, first.anomaly_predicted);
  EXPECT_EQ(resumed.first_alarm_sec, first.first_alarm_sec);
  EXPECT_EQ(resumed.cloud_calls, first.cloud_calls);
}

TEST_F(RecoveryTest, IntervalWindowsControlsTheCheckpointCadence) {
  testing::TempDir dir("recovery_interval");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  options.recovery.interval_windows = 5;
  const RunResult result = run_with(options);
  EXPECT_EQ(result.robust.recovery.checkpoints_written,
            result.iterations.size() / 5);
  // The surviving snapshot sits on a multiple of the interval.
  const auto snapshot = robust::read_checkpoint(dir.path());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->next_window % 5, 0u);
  EXPECT_GT(snapshot->next_window, 0u);
}

// A resumed run that publishes no further snapshot still reports the one
// it resumed from: last_snapshot_window names the newest snapshot on disk.
TEST_F(RecoveryTest, ResumeWithoutANewSnapshotReportsTheRestoredOne) {
  testing::TempDir dir("recovery_last_snapshot");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  options.recovery.interval_windows = 5;
  EmapPipeline first(testing::small_mdb(4), EmapConfig{}, options);
  EXPECT_EQ(first.run(input(), 10.0).robust.recovery.last_snapshot_window,
            10u);
  options.recovery.resume = true;
  EmapPipeline resumed_pipeline(testing::small_mdb(4), EmapConfig{}, options);
  const RunResult resumed = resumed_pipeline.run(input(), 12.0);
  ASSERT_TRUE(resumed.robust.recovery.resumed);
  EXPECT_EQ(resumed.robust.recovery.resume_window, 10u);
  EXPECT_EQ(resumed.iterations.size(), 2u);
  EXPECT_EQ(resumed.robust.recovery.checkpoints_written, 0u);
  EXPECT_EQ(resumed.robust.recovery.last_snapshot_window, 10u);
}

TEST_F(RecoveryTest, MissingSnapshotFallsBackToColdStart) {
  testing::TempDir dir("recovery_cold");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  options.recovery.resume = true;
  const RunResult result = run_with(options);
  EXPECT_FALSE(result.robust.recovery.resumed);
  EXPECT_TRUE(result.robust.recovery.cold_start_fallback);
  EXPECT_FALSE(result.robust.recovery.reject_reason.empty());
  // The cold-started run is simply a full run.
  const RunResult reference = run_with(base_options());
  EXPECT_EQ(result.iterations.size(), reference.iterations.size());
  EXPECT_EQ(result.first_alarm_sec, reference.first_alarm_sec);
}

TEST_F(RecoveryTest, StrictResumeThrowsWithoutASnapshot) {
  testing::TempDir dir("recovery_strict");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  options.recovery.resume = true;
  options.recovery.strict = true;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  EXPECT_THROW(pipeline.run(input()), robust::CheckpointError);
}

TEST_F(RecoveryTest, ResumeUnderADifferentConfigIsRejected) {
  testing::TempDir dir("recovery_config");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  run_with(options);

  EmapConfig changed;
  changed.top_k = 50;  // different fingerprint, same pipeline shape
  PipelineOptions resume_options = base_options();
  resume_options.recovery.checkpoint_dir = dir.path();
  resume_options.recovery.resume = true;

  // Strict first: the rejection throws before anything is replayed (and
  // before the fallback run below overwrites the snapshot).
  resume_options.recovery.strict = true;
  EmapPipeline strict(testing::small_mdb(4), EmapConfig{changed},
                      resume_options);
  EXPECT_THROW(strict.run(input()), robust::CheckpointError);

  resume_options.recovery.strict = false;
  EmapPipeline fallback(testing::small_mdb(4), EmapConfig{changed},
                        resume_options);
  const RunResult result = fallback.run(input());
  EXPECT_FALSE(result.robust.recovery.resumed);
  EXPECT_TRUE(result.robust.recovery.cold_start_fallback);
  EXPECT_NE(result.robust.recovery.reject_reason.find("config"),
            std::string::npos);
}

TEST_F(RecoveryTest, ResumeAgainstADifferentInputIsRejected) {
  testing::TempDir dir("recovery_input");
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  run_with(options);

  PipelineOptions resume_options = base_options();
  resume_options.recovery.checkpoint_dir = dir.path();
  resume_options.recovery.resume = true;

  // Strict first: the fallback run below overwrites the snapshot with the
  // new input's fingerprint.
  resume_options.recovery.strict = true;
  EmapPipeline strict(testing::small_mdb(4), EmapConfig{}, resume_options);
  EXPECT_THROW(strict.run(input(22)), robust::CheckpointError);

  resume_options.recovery.strict = false;
  const RunResult result = run_with(resume_options, /*input_seed=*/22);
  EXPECT_FALSE(result.robust.recovery.resumed);
  EXPECT_TRUE(result.robust.recovery.cold_start_fallback);
  EXPECT_NE(result.robust.recovery.reject_reason.find("input"),
            std::string::npos);
}

TEST_F(RecoveryTest, RecoveryMetricsAndReportFieldsAreWired) {
  testing::TempDir dir("recovery_metrics");
  obs::MetricsRegistry registry;
  robust::CrashPointRegistry crashpoints;
  PipelineOptions options = base_options();
  options.recovery.checkpoint_dir = dir.path();
  options.metrics = &registry;
  options.crashpoints = &crashpoints;
  {
    robust::ScopedCrashSchedule guard(crashpoints,
                                      {"pipeline_window_start", 10});
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
    EXPECT_THROW(pipeline.run(input()), robust::InjectedCrash);
  }
  options.crashpoints = nullptr;
  options.recovery.resume = true;
  const RunResult resumed = run_with(options);
  ASSERT_TRUE(resumed.robust.recovery.resumed);
  const std::string summary = run_summary_json(resumed);
  EXPECT_NE(summary.find("\"robust_recovered\":true"), std::string::npos);
  EXPECT_NE(summary.find("\"recovery_checkpoints_written\":"),
            std::string::npos);
  // Every resumed window is flagged in the CSV column source field.
  for (const IterationRecord& record : resumed.iterations) {
    EXPECT_TRUE(record.recovered);
  }
}

}  // namespace
}  // namespace emap::core
