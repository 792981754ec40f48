// Coverage of the PipelineOptions switches.
#include <gtest/gtest.h>

#include "emap/core/pipeline.hpp"
#include "emap/robust/crashpoint.hpp"
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

TEST(PipelineOptions, MaxWindowsLimitsRunLength) {
  PipelineOptions options;
  options.max_windows = 7;
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{}, options);
  const auto result = pipeline.run(input_recording(1));
  EXPECT_EQ(result.iterations.size(), 7u);
}

TEST(PipelineOptions, TraceCollectionCanBeDisabled) {
  PipelineOptions options;
  options.collect_trace = false;
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{}, options);
  const auto result = pipeline.run(input_recording(2));
  EXPECT_EQ(result.tracer, nullptr);
  // Timings still computed (they don't depend on the trace).
  EXPECT_GT(result.timings.delta_initial_sec, 0.0);
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
  PipelineOptions options;
  options.filter_accelerator_sec = 0.01;
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{}, options);
  const auto result = pipeline.run(input_recording(5), 5.0);
  const double filter_time =
      testing::busy_seconds(result.tracer.get(), "filter");
  EXPECT_NEAR(filter_time,
              0.01 * static_cast<double>(result.iterations.size()), 1e-9);
}

}  // namespace
}  // namespace emap::core
