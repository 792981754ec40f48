// Golden digests of the batch loop's RunResult.
//
// Three seeded runs — a clean link, a faulted link with a checkpoint after
// every window, and a robust run on a slowed edge device that sheds, goes
// CRITICAL and defers telemetry flushes — are reduced to CRC-32 digests of
// everything the run decided: per-window P_A, loads, cloud-call issues,
// device-model step times, counters, Eq. 4 timings and the robust summary.
// The faulted run also pins the bytes of its final snapshot file.  Any
// change to the per-window steps that alters a single bit of the output
// changes a digest.  The same runs check that the decision record
// explains every window's cloud call.  The DSP kernels are pinned to the
// scalar arm so the digests hold on every host and build type; the clean
// and faulted runs are pinned on the AVX2 arm too, skipped on hosts
// without it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "emap/common/crc32.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/dsp/simd.hpp"
#include "emap/robust/checkpoint.hpp"
#include "emap/robust/robust.hpp"
#include "emap/sim/device.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

/// Byte sink that serialises fields in a fixed layout before hashing.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    bytes_.insert(bytes_.end(), bytes, bytes + sizeof(T));
  }
  void add(bool value) { bytes_.push_back(value ? 1 : 0); }
  void add(const std::string& text) {
    add(static_cast<std::uint64_t>(text.size()));
    bytes_.insert(bytes_.end(), text.begin(), text.end());
  }
  std::uint32_t crc() const { return crc32(bytes_.data(), bytes_.size()); }

 private:
  std::vector<unsigned char> bytes_;
};

std::uint32_t digest(const RunResult& result) {
  Digest d;
  d.add(static_cast<std::uint64_t>(result.iterations.size()));
  for (const IterationRecord& r : result.iterations) {
    d.add(static_cast<std::uint64_t>(r.window_index));
    d.add(r.t_sec);
    d.add(r.set_loaded);
    d.add(r.pa_on_load);
    d.add(r.tracked);
    d.add(r.anomaly_probability);
    d.add(static_cast<std::uint64_t>(r.tracked_before));
    d.add(static_cast<std::uint64_t>(r.tracked_after));
    d.add(static_cast<std::uint64_t>(r.removed_dissimilar));
    d.add(static_cast<std::uint64_t>(r.removed_exhausted));
    d.add(r.cloud_call_issued);
    d.add(r.degraded);
    d.add(r.track_device_sec);
    d.add(r.abs_ops);
    d.add(static_cast<std::int32_t>(r.robust_state));
    d.add(static_cast<std::uint64_t>(r.shed_cap));
    d.add(static_cast<std::int32_t>(r.quality));
    d.add(r.breaker_rejected);
    d.add(r.robust_critical);
    d.add(r.recovered);
  }
  d.add(result.anomaly_predicted);
  d.add(result.first_alarm_sec);
  d.add(static_cast<std::uint64_t>(result.cloud_calls));
  d.add(static_cast<std::uint64_t>(result.failed_cloud_calls));
  d.add(static_cast<std::uint64_t>(result.retry_attempts));
  d.add(static_cast<std::uint64_t>(result.duplicates_discarded));
  d.add(result.degraded);
  d.add(result.timings.delta_ec_sec);
  d.add(result.timings.delta_cs_sec);
  d.add(result.timings.delta_ce_sec);
  d.add(result.timings.delta_initial_sec);
  d.add(result.timings.mean_track_sec);
  d.add(result.timings.max_track_sec);
  d.add(robust::robust_summary_json(result.robust));
  return d.crc();
}

std::uint32_t file_crc(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  return crc32(bytes.data(), bytes.size());
}

synth::Recording seizure_input(std::uint64_t seed, double duration,
                               double onset) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = duration;
  spec.onset_sec = onset;
  return synth::make_eval_input(spec);
}

RunResult clean_run() {
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{},
                        PipelineOptions{});
  return pipeline.run(seizure_input(21, 60.0, 40.0));
}

/// The faulted run, checkpointing into `dir` after every window.
RunResult faulted_run(const std::filesystem::path& dir) {
  PipelineOptions options;
  options.fault.up.drop = 0.2;
  options.fault.down.drop = 0.1;
  options.fault.down.corrupt = 0.1;
  options.fault.down.duplicate = 0.2;
  options.fault.up.delay = 0.2;
  options.fault.seed = 0x5e55u;
  options.retry.max_attempts = 2;
  options.recovery.checkpoint_dir = dir;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  return pipeline.run(seizure_input(33, 60.0, 40.0));
}

/// The faulted run's digest and the CRC of its final snapshot file.
std::pair<std::uint32_t, std::uint32_t> faulted_run_digests() {
  testing::TempDir dir("session_golden");
  const RunResult result = faulted_run(dir.path());
  EXPECT_GE(result.retry_attempts, 1u);
  EXPECT_GE(result.failed_cloud_calls, 1u);
  EXPECT_EQ(result.robust.recovery.checkpoints_written,
            result.iterations.size());
  return {digest(result), file_crc(robust::checkpoint_path(dir.path()))};
}

RunResult robust_run() {
  // delta = -0.5 makes every offset a candidate, so each delivery carries
  // the full top-100 set and is truncated to the shed cap.  At 50 ms per
  // tracked signal the full set trips the watchdog, which forces CRITICAL.
  EmapConfig config;
  config.delta = -0.5;
  sim::DeviceProfile edge = sim::edge_raspberry_pi();
  edge.name = "slowed-edge";
  edge.per_signal_overhead_sec = 0.05;
  PipelineOptions options;
  options.edge_device = edge;
  EmapPipeline pipeline(testing::small_mdb(4), config, options);
  return pipeline.run(seizure_input(11, 60.0, 45.0));
}

/// The built-in alert rules over a 150 s run on an edge device 20x slower
/// than the Raspberry Pi model, so its track steps overrun the 1 s budget.
RunResult alerting_run(obs::MetricsRegistry& registry) {
  sim::DeviceProfile edge = sim::edge_raspberry_pi();
  edge.name = "slowed-edge";
  edge.mac_ops_per_sec /= 20.0;
  edge.abs_ops_per_sec /= 20.0;
  edge.per_signal_overhead_sec *= 20.0;
  PipelineOptions options;
  options.edge_device = edge;
  options.metrics = &registry;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  return pipeline.run(seizure_input(11, 150.0, 135.0));
}

/// The decision record explains every window: a call was issued exactly
/// when no reason says otherwise, every loaded set names the earlier
/// window whose call delivered it, and the last window carries the run's
/// alarm.
void expect_decisions_explained(const RunResult& result) {
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_EQ(result.iterations.back().anomaly_predicted,
            result.anomaly_predicted);
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationRecord& r = result.iterations[i];
    EXPECT_EQ(r.cloud_call_issued, r.no_call_reason == NoCallReason::kNone)
        << "window " << i << ": " << no_call_reason_name(r.no_call_reason);
    EXPECT_EQ(r.breaker_rejected,
              r.no_call_reason == NoCallReason::kBreakerOpen)
        << "window " << i;
    if (!r.set_loaded) {
      EXPECT_EQ(r.loaded_sequence, -1) << "window " << i;
      continue;
    }
    bool issued_earlier = false;
    for (std::size_t j = 0; j < i; ++j) {
      issued_earlier |= static_cast<std::int64_t>(
                            result.iterations[j].window_index) ==
                            r.loaded_sequence &&
                        result.iterations[j].cloud_call_issued;
    }
    EXPECT_TRUE(issued_earlier)
        << "window " << i << " loaded sequence " << r.loaded_sequence;
  }
}

bool avx2_arm_available() {
  return dsp::simd::compiled_with_avx2() && dsp::simd::cpu_supports_avx2();
}

class SessionGolden : public ::testing::Test {
 protected:
  void SetUp() override { dsp::simd::force_level(dsp::simd::Level::kScalar); }
  void TearDown() override { dsp::simd::force_level(std::nullopt); }
};

TEST_F(SessionGolden, CleanRun) {
  const RunResult result = clean_run();
  ASSERT_GE(result.cloud_calls, 2u);
  EXPECT_TRUE(result.anomaly_predicted);
  EXPECT_EQ(digest(result), 0x2e791499u);
}

TEST_F(SessionGolden, FaultedRunCheckpointingEveryWindow) {
  const auto [run, snapshot] = faulted_run_digests();
  EXPECT_EQ(run, 0x67b18234u);
  EXPECT_EQ(snapshot, 0x6dc88658u);
}

// The same two runs on the AVX2 arm, the one production hosts dispatch
// to.  Its reductions round differently from scalar, so the run digests
// differ from the scalar ones; they pin the AVX2 arm's decisions.
TEST_F(SessionGolden, CleanRunAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  dsp::simd::force_level(dsp::simd::Level::kAvx2);
  const RunResult result = clean_run();
  ASSERT_GE(result.cloud_calls, 2u);
  EXPECT_TRUE(result.anomaly_predicted);
  EXPECT_EQ(digest(result), 0xd8531d79u);
}

TEST_F(SessionGolden, FaultedRunCheckpointingEveryWindowAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  dsp::simd::force_level(dsp::simd::Level::kAvx2);
  const auto [run, snapshot] = faulted_run_digests();
  EXPECT_EQ(run, 0x1da45b12u);
  EXPECT_EQ(snapshot, 0x6dc88658u);
}

TEST_F(SessionGolden, RobustRunOnSlowedEdge) {
  const RunResult result = robust_run();
  EXPECT_GE(result.robust.shed_loads, 1u);
  EXPECT_GE(result.robust.critical_windows, 1u);
  EXPECT_GE(result.robust.deferred_flushes, 1u);
  EXPECT_EQ(digest(result), 0x5090c36au);
}

// The built-in alert rules over a slowed edge: the latency-step rule
// fires and resolves as its mean adapts, the edge burn rule fires.  The
// CRC pins every byte of the decision record, the transitions included.
TEST_F(SessionGolden, BuiltInAlertsOnSlowedEdge) {
  obs::MetricsRegistry registry;
  const RunResult result = alerting_run(registry);
  ASSERT_NE(result.alerts, nullptr);
  const std::string jsonl = iterations_jsonl(result);
  EXPECT_NE(jsonl.find("\":\"firing\""), std::string::npos);
  EXPECT_NE(jsonl.find("\":\"resolved\""), std::string::npos);
  EXPECT_EQ(result.alerts->transitions().size(), 3u);
  std::size_t recorded = 0;
  for (const IterationRecord& r : result.iterations) {
    recorded += r.alerts.size();
  }
  EXPECT_EQ(recorded, 3u);
  EXPECT_EQ(crc32(jsonl.data(), jsonl.size()), 0x0be9d6f4u);
  EXPECT_EQ(digest(result), 0xf904abf6u);
}

TEST_F(SessionGolden, RecordExplainsEveryCallDecision) {
  expect_decisions_explained(clean_run());
  {
    testing::TempDir dir("session_golden_record");
    expect_decisions_explained(faulted_run(dir.path()));
  }
  expect_decisions_explained(robust_run());
}

}  // namespace
}  // namespace emap::core
