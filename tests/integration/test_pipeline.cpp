// Integration tests of the full EmapPipeline loop.
#include "emap/core/pipeline.hpp"

#include <gtest/gtest.h>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static mdb::MdbStore shared_store() { return testing::small_mdb(6); }

  static synth::Recording seizure_input(std::uint64_t seed,
                                        double duration = 150.0,
                                        double onset = 120.0) {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kSeizure;
    spec.seed = seed;
    spec.duration_sec = duration;
    spec.onset_sec = onset;
    return synth::make_eval_input(spec);
  }
};

TEST_F(PipelineTest, ColdStartIssuesInitialCloudCall) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(1, 20.0, 15.0);
  const auto result = pipeline.run(input);
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_TRUE(result.iterations.front().cloud_call_issued);
  EXPECT_GE(result.cloud_calls, 1u);
}

TEST_F(PipelineTest, Eq4TimingDecomposition) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(2, 30.0, 25.0);
  const auto result = pipeline.run(input);
  const auto& t = result.timings;
  EXPECT_GT(t.delta_ec_sec, 0.0);
  EXPECT_GT(t.delta_cs_sec, 0.0);
  EXPECT_GT(t.delta_ce_sec, 0.0);
  EXPECT_NEAR(t.delta_initial_sec,
              t.delta_ec_sec + t.delta_cs_sec + t.delta_ce_sec, 1e-12);
  // Search dominates the initial latency (paper Fig. 9).
  EXPECT_GT(t.delta_cs_sec, t.delta_ec_sec);
  EXPECT_GT(t.delta_cs_sec, t.delta_ce_sec);
}

TEST_F(PipelineTest, TrackingBeginsAfterSetArrives) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(3, 30.0, 25.0);
  const auto result = pipeline.run(input);
  bool seen_load = false;
  for (const auto& record : result.iterations) {
    if (record.set_loaded) {
      seen_load = true;
    }
    if (record.tracked) {
      EXPECT_TRUE(seen_load) << "tracking before any correlation set";
    }
  }
  EXPECT_TRUE(seen_load);
}

TEST_F(PipelineTest, RunsAreDeterministic) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(4, 60.0, 50.0);
  const auto a = pipeline.run(input);
  const auto b = pipeline.run(input);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iterations[i].anomaly_probability,
                     b.iterations[i].anomaly_probability);
    EXPECT_EQ(a.iterations[i].tracked_after, b.iterations[i].tracked_after);
  }
  EXPECT_EQ(a.cloud_calls, b.cloud_calls);
}

TEST_F(PipelineTest, StopAtSecTruncatesRun) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(5, 60.0, 50.0);
  const auto result = pipeline.run(input, /*stop_at_sec=*/10.0);
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_LE(result.iterations.back().t_sec, 10.0);
}

TEST_F(PipelineTest, RejectsWrongRateInput) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  synth::RecordingGenerator gen;
  synth::RecordingSpec spec;
  spec.fs = 100.0;
  spec.duration_sec = 10.0;
  EXPECT_THROW(pipeline.run(gen.generate(spec)), InvalidArgument);
}

TEST_F(PipelineTest, RejectsTooShortInput) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  synth::RecordingGenerator gen;
  synth::RecordingSpec spec;
  spec.duration_sec = 0.5;
  EXPECT_THROW(pipeline.run(gen.generate(spec)), InvalidArgument);
}

TEST_F(PipelineTest, TraceContainsAllPhases) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(6, 30.0, 25.0);
  const auto result = pipeline.run(input);
  for (const char* category :
       {"sample", "upload", "cloud-search", "download", "edge-track"}) {
    EXPECT_GT(testing::busy_seconds(result.tracer.get(), category), 0.0)
        << category;
  }
}

TEST_F(PipelineTest, TransportPathMatchesDirectPathApproximately) {
  // 16-bit wire quantization must not change the qualitative outcome.
  auto input = seizure_input(7, 40.0, 35.0);
  PipelineOptions direct;
  direct.use_transport = false;
  EmapPipeline with_transport(shared_store(), EmapConfig{});
  EmapPipeline without_transport(shared_store(), EmapConfig{}, direct);
  const auto a = with_transport.run(input);
  const auto b = without_transport.run(input);
  EXPECT_EQ(a.iterations.size(), b.iterations.size());
  // Tracked counts may differ slightly; they must be in the same ballpark.
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    max_diff = std::max(
        max_diff,
        std::abs(static_cast<double>(a.iterations[i].tracked_after) -
                 static_cast<double>(b.iterations[i].tracked_after)));
  }
  EXPECT_LE(max_diff, 25.0);
}

TEST_F(PipelineTest, EdgeIterationIsRealTimeOnDeviceModel) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(8, 60.0, 50.0);
  const auto result = pipeline.run(input);
  // The paper's constraint: each tracking iteration under 1 s on the edge.
  EXPECT_GT(result.timings.mean_track_sec, 0.0);
  EXPECT_LT(result.timings.mean_track_sec, 1.0);
}

TEST_F(PipelineTest, StopOnAlarmEndsRunEarly) {
  PipelineOptions options;
  options.stop_on_alarm = true;
  EmapPipeline pipeline(shared_store(), EmapConfig{}, options);
  auto input = seizure_input(9, 150.0, 120.0);
  const auto result = pipeline.run(input);
  if (result.anomaly_predicted) {
    EXPECT_NEAR(result.iterations.back().t_sec, result.first_alarm_sec, 1.5);
  }
}

TEST_F(PipelineTest, CloudRecallHappensWithinPaperCadence) {
  EmapPipeline pipeline(shared_store(), EmapConfig{});
  auto input = seizure_input(10, 120.0, 100.0);
  const auto result = pipeline.run(input);
  // The paper observes a cloud call roughly every 5 iterations; allow a
  // generous band but require recalls to happen repeatedly.
  EXPECT_GE(result.cloud_calls, 3u);
}

}  // namespace
}  // namespace emap::core
