// Coverage of the PipelineOptions switches and run()'s stop argument.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/robust/crashpoint.hpp"
#include "support/records.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

synth::Recording input_recording(std::uint64_t seed) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = 40.0;
  spec.onset_sec = 35.0;
  return synth::make_eval_input(spec);
}

// The one way to end a run early is run()'s stop argument.  Windows are
// 1 s long, so stopping at N s runs exactly the first N windows of the
// whole-input run, with every decision unchanged — on a faulted link too,
// where the fault schedule and retries must line up window for window.
TEST(PipelineOptions, StopArgumentRunsAPrefixOfTheFullRun) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 1;
  spec.duration_sec = 70.0;
  spec.onset_sec = 50.0;
  const synth::Recording input = synth::make_eval_input(spec);
  PipelineOptions faulted;
  faulted.fault.up.drop = 0.1;
  faulted.fault.up.delay = 0.2;
  faulted.fault.down.drop = 0.1;
  faulted.fault.down.corrupt = 0.05;
  faulted.fault.down.duplicate = 0.05;
  faulted.fault.seed = 11;
  for (const bool faults : {false, true}) {
    EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{},
                          faults ? faulted : PipelineOptions{});
    const RunResult full = pipeline.run(input);
    ASSERT_EQ(full.iterations.size(), 70u);
    if (faults) {
      ASSERT_GT(full.retry_attempts, 0u) << "the faulted link never failed";
    }
    for (const std::size_t n : {5U, 17U, 40U, 63U}) {
      const RunResult prefix = pipeline.run(input, static_cast<double>(n));
      const std::vector<IterationRecord> head(
          full.iterations.begin(),
          full.iterations.begin() + static_cast<std::ptrdiff_t>(n));
      testing::expect_same_records(
          prefix.iterations, head,
          std::string(faults ? "faulted" : "clean") + " N=" +
              std::to_string(n));
    }
  }
}

TEST(PipelineOptions, SlowerPlatformIncreasesTransferTimes) {
  PipelineOptions lte_a;
  lte_a.platform = net::CommPlatform::kLteAdvanced;
  PipelineOptions hspa;
  hspa.platform = net::CommPlatform::kHspa;
  auto input = input_recording(3);
  EmapPipeline fast_pipeline(testing::small_mdb(2), EmapConfig{}, lte_a);
  EmapPipeline slow_pipeline(testing::small_mdb(2), EmapConfig{}, hspa);
  const auto fast = fast_pipeline.run(input);
  const auto slow = slow_pipeline.run(input);
  EXPECT_GT(slow.timings.delta_ec_sec, fast.timings.delta_ec_sec);
  EXPECT_GT(slow.timings.delta_ce_sec, fast.timings.delta_ce_sec);
  // The search itself is platform independent.
  EXPECT_NEAR(slow.timings.delta_cs_sec, fast.timings.delta_cs_sec, 1e-9);
}

TEST(PipelineOptions, StopAtOverrideDoesNotStickAcrossRuns) {
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{});
  auto input = input_recording(4);
  const auto truncated = pipeline.run(input, 5.0);
  const auto full = pipeline.run(input);
  EXPECT_LT(truncated.iterations.size(), full.iterations.size());
  // A second full run matches the first: the override did not persist.
  const auto full_again = pipeline.run(input);
  EXPECT_EQ(full.iterations.size(), full_again.iterations.size());
}

// A run that throws must not leave its stop time behind either: the
// override is an argument of that run, not a change to the options.
TEST(PipelineOptions, StopAtOverrideDoesNotStickAfterAThrow) {
  robust::CrashPointRegistry registry;
  PipelineOptions options;
  options.crashpoints = &registry;
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{}, options);
  const auto input = input_recording(4);
  {
    robust::ScopedCrashSchedule guard(registry,
                                      {"pipeline_window_start", 3});
    EXPECT_THROW(pipeline.run(input, 10.0), robust::InjectedCrash);
  }
  const auto full = pipeline.run(input);
  EXPECT_EQ(full.iterations.size(),
            input.samples.size() / EmapConfig{}.window_length);
}

TEST(PipelineOptions, FilterAcceleratorTimeAppearsInTrace) {
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{});
  const auto result = pipeline.run(input_recording(5), 5.0);
  ASSERT_EQ(result.iterations.size(), 5u);
  const double filter_time =
      testing::busy_seconds(result.tracer.get(), "filter");
  EXPECT_NEAR(filter_time,
              kFilterAcceleratorSec *
                  static_cast<double>(result.iterations.size()),
              1e-9);
}

}  // namespace
}  // namespace emap::core
