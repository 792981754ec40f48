// Golden digests of the batch loop's RunResult.
//
// Three seeded runs — a clean link, a faulted link with a checkpoint after
// every window, and a robust run on a slowed edge device that sheds, goes
// CRITICAL and defers telemetry flushes — are reduced to CRC-32 digests of
// everything the run decided: per-window P_A, loads, cloud-call issues,
// device-model step times, counters, Eq. 4 timings and the robust summary.
// The faulted run also pins the bytes of its final snapshot file.  Any
// change to the per-window steps that alters a single bit of the output
// changes a digest.  The DSP kernels are pinned to the scalar arm so the
// digests hold on every host and build type.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "emap/common/crc32.hpp"
#include "emap/core/pipeline.hpp"
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

class SessionGolden : public ::testing::Test {
 protected:
  void SetUp() override { dsp::simd::force_level(dsp::simd::Level::kScalar); }
  void TearDown() override { dsp::simd::force_level(std::nullopt); }
};

TEST_F(SessionGolden, CleanRun) {
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{},
                        PipelineOptions{});
  const RunResult result = pipeline.run(seizure_input(21, 60.0, 40.0));
  ASSERT_GE(result.cloud_calls, 2u);
  EXPECT_TRUE(result.anomaly_predicted);
  EXPECT_EQ(digest(result), 0x45e3d7aau);
}

TEST_F(SessionGolden, FaultedRunCheckpointingEveryWindow) {
  testing::TempDir dir("session_golden");
  PipelineOptions options;
  options.fault.up.drop = 0.2;
  options.fault.down.drop = 0.1;
  options.fault.down.corrupt = 0.1;
  options.fault.down.duplicate = 0.2;
  options.fault.up.delay = 0.2;
  options.fault.seed = 0x5e55u;
  options.retry.max_attempts = 2;
  options.recovery.checkpoint_dir = dir.path();
  options.recovery.interval_windows = 1;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  const RunResult result = pipeline.run(seizure_input(33, 60.0, 40.0));
  EXPECT_GE(result.retry_attempts, 1u);
  EXPECT_GE(result.failed_cloud_calls, 1u);
  EXPECT_EQ(result.robust.recovery.checkpoints_written,
            result.iterations.size());
  EXPECT_EQ(digest(result), 0x7b5124e1u);
  EXPECT_EQ(file_crc(robust::checkpoint_path(dir.path())), 0x59549b2du);
}

TEST_F(SessionGolden, RobustRunOnSlowedEdge) {
  // delta = -0.5 makes every offset a candidate, so each delivery carries
  // the full top-100 set and is truncated to the shed cap.  At 50 ms per
  // tracked signal the full set trips the watchdog, which forces CRITICAL.
  EmapConfig config;
  config.delta = -0.5;
  sim::DeviceProfile edge = sim::edge_raspberry_pi();
  edge.name = "slowed-edge";
  edge.per_signal_overhead_sec = 0.05;
  PipelineOptions options;
  options.robust.enabled = true;
  options.edge_device = edge;
  EmapPipeline pipeline(testing::small_mdb(4), config, options);
  const RunResult result = pipeline.run(seizure_input(11, 60.0, 45.0));
  EXPECT_GE(result.robust.shed_loads, 1u);
  EXPECT_GE(result.robust.critical_windows, 1u);
  EXPECT_GE(result.robust.deferred_flushes, 1u);
  EXPECT_EQ(digest(result), 0x9501f463u);
}

}  // namespace
}  // namespace emap::core
