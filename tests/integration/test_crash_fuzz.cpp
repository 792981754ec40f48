// Crash-point fuzzer: a seeded schedule of random (crash point, hit
// count) pairs driven through robust/crashpoint, asserting that every
// kill+resume replays bit-identically to the uninterrupted reference run.
// Where the recovery matrix (test_recovery.cpp) pins one curated hit per
// point, this soak samples the whole (point x hit) space — including
// first-hit crashes that land before any snapshot exists, which must fall
// back to a cold start that still matches the reference.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "emap/common/rng.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/robust/checkpoint.hpp"
#include "emap/robust/crashpoint.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

constexpr std::uint64_t kFuzzSeed = 0xF422;
constexpr std::size_t kFuzzTrials = 10;

class CrashFuzzTest : public ::testing::Test {
 protected:
  static synth::Recording input() {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kSeizure;
    spec.seed = 21;
    spec.duration_sec = 40.0;
    spec.onset_sec = 30.0;
    return synth::make_eval_input(spec);
  }

  static PipelineOptions base_options() { return PipelineOptions{}; }

  static RunResult run_with(const PipelineOptions& options) {
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
    return pipeline.run(input());
  }

  /// Per-point total hit counts of one full (uncrashed) run with
  /// checkpointing on — the sample space the fuzzer draws hits from.
  static std::map<std::string, std::uint64_t> count_hits(
      const std::filesystem::path& checkpoint_dir) {
    robust::CrashPointRegistry registry;  // attached but never armed
    PipelineOptions options = base_options();
    options.recovery.checkpoint_dir = checkpoint_dir;
    options.crashpoints = &registry;
    run_with(options);
    std::map<std::string, std::uint64_t> counts;
    for (const std::string& point : robust::crash_point_catalog()) {
      counts[point] = registry.hits(point);
    }
    return counts;
  }

  /// Same bit-identity contract as the recovery matrix.
  static void expect_equivalent(const RunResult& resumed,
                                const RunResult& reference,
                                const std::string& label) {
    ASSERT_TRUE(resumed.robust.recovery.resumed) << label;
    ASSERT_FALSE(resumed.iterations.empty()) << label;
    for (const IterationRecord& record : resumed.iterations) {
      ASSERT_LT(record.window_index, reference.iterations.size()) << label;
      const IterationRecord& ref = reference.iterations[record.window_index];
      EXPECT_EQ(record.anomaly_probability, ref.anomaly_probability)
          << label << " window " << record.window_index;
      EXPECT_EQ(record.t_sec, ref.t_sec) << label;
      EXPECT_EQ(record.tracked, ref.tracked) << label;
      EXPECT_EQ(record.tracked_after, ref.tracked_after) << label;
      EXPECT_EQ(record.cloud_call_issued, ref.cloud_call_issued) << label;
    }
    EXPECT_EQ(resumed.anomaly_predicted, reference.anomaly_predicted)
        << label;
    EXPECT_EQ(resumed.first_alarm_sec, reference.first_alarm_sec) << label;
    EXPECT_EQ(resumed.cloud_calls, reference.cloud_calls) << label;
    EXPECT_EQ(resumed.failed_cloud_calls, reference.failed_cloud_calls)
        << label;
  }

  /// A crash before the first snapshot leaves nothing to resume; the
  /// cold-started rerun must still be a full, reference-identical run.
  static void expect_cold_start_matches(const RunResult& rerun,
                                        const RunResult& reference,
                                        const std::string& label) {
    EXPECT_FALSE(rerun.robust.recovery.resumed) << label;
    EXPECT_TRUE(rerun.robust.recovery.cold_start_fallback) << label;
    ASSERT_EQ(rerun.iterations.size(), reference.iterations.size()) << label;
    for (std::size_t i = 0; i < reference.iterations.size(); ++i) {
      EXPECT_EQ(rerun.iterations[i].anomaly_probability,
                reference.iterations[i].anomaly_probability)
          << label << " window " << i;
    }
    EXPECT_EQ(rerun.anomaly_predicted, reference.anomaly_predicted) << label;
    EXPECT_EQ(rerun.first_alarm_sec, reference.first_alarm_sec) << label;
  }
};

TEST_F(CrashFuzzTest, SeededRandomCrashSchedulesResumeBitIdentically) {
  const RunResult reference = run_with(base_options());
  ASSERT_FALSE(reference.iterations.empty());

  testing::TempDir counting_dir("crash_fuzz_count");
  const auto totals = count_hits(counting_dir.path());
  const auto& catalog = robust::crash_point_catalog();
  ASSERT_FALSE(catalog.empty());

  Rng rng(kFuzzSeed);
  std::size_t resumed_trials = 0;
  std::size_t cold_start_trials = 0;
  for (std::size_t trial = 0; trial < kFuzzTrials; ++trial) {
    const std::string& point =
        catalog[rng.uniform_index(catalog.size())];
    const std::uint64_t total = totals.at(point);
    if (total == 0) {
      continue;  // point unreachable under this workload
    }
    const std::uint64_t hit = 1 + rng.uniform_index(total);
    const std::string label = "trial " + std::to_string(trial) + ": " +
                              point + "@" + std::to_string(hit);

    testing::TempDir dir("crash_fuzz_" + std::to_string(trial));
    robust::CrashPointRegistry registry;
    PipelineOptions crash_options = base_options();
    crash_options.recovery.checkpoint_dir = dir.path();
    crash_options.crashpoints = &registry;
    {
      robust::ScopedCrashSchedule guard(registry, {point, hit});
      EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{},
                            crash_options);
      EXPECT_THROW(pipeline.run(input()), robust::InjectedCrash) << label;
    }

    PipelineOptions resume_options = base_options();
    resume_options.recovery.checkpoint_dir = dir.path();
    resume_options.recovery.resume = true;
    if (std::filesystem::exists(robust::checkpoint_path(dir.path()))) {
      expect_equivalent(run_with(resume_options), reference, label);
      ++resumed_trials;
    } else {
      expect_cold_start_matches(run_with(resume_options), reference, label);
      ++cold_start_trials;
    }
  }
  // The seed is pinned, so the split below is deterministic; both recovery
  // paths must actually be exercised for the soak to mean anything.
  EXPECT_GT(resumed_trials, 0u);
  EXPECT_GT(resumed_trials + cold_start_trials, kFuzzTrials / 2);
}

// The same seed must produce the same schedule — the fuzzer is replayable
// from its log line alone.
TEST_F(CrashFuzzTest, ScheduleDerivationIsDeterministic) {
  const auto& catalog = robust::crash_point_catalog();
  Rng first(kFuzzSeed);
  Rng second(kFuzzSeed);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(first.uniform_index(catalog.size()),
              second.uniform_index(catalog.size()));
    EXPECT_EQ(first.uniform_index(1000), second.uniform_index(1000));
  }
}

}  // namespace
}  // namespace emap::core
