// SignalQualityGate unit tests: the four verdicts, their severity order,
// calibration against the synthesizer's clean output, and counters.
#include "emap/robust/quality.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "emap/obs/export.hpp"
#include "emap/synth/corpus.hpp"
#include "support/test_util.hpp"

namespace emap::robust {
namespace {

constexpr std::size_t kWindow = 256;

TEST(Quality, CleanSineWindowPasses) {
  SignalQualityGate gate;
  const auto window = testing::sine(12.0, 256.0, kWindow, /*amp=*/10.0);
  const QualityReport report = gate.assess(window);
  EXPECT_TRUE(report.good());
  EXPECT_EQ(report.verdict, QualityVerdict::kGood);
  EXPECT_GT(report.stddev, 1.0);
}

TEST(Quality, SynthesizedRecordingNeverGatesByDefault) {
  // Calibration contract: the generator's clean output (amplitude scale
  // ~10) sits far inside every default threshold, so a default run is
  // bit-identical with the gate on.
  SignalQualityGate gate;
  synth::EvalInputSpec spec;
  spec.seed = 5;
  spec.duration_sec = 30.0;
  spec.onset_sec = 20.0;
  const auto input = synth::make_eval_input(spec);
  for (std::size_t offset = 0; offset + kWindow <= input.samples.size();
       offset += kWindow) {
    const QualityReport report = gate.assess(
        std::span<const double>(input.samples.data() + offset, kWindow));
    EXPECT_TRUE(report.good()) << "window at " << offset;
  }
  EXPECT_EQ(gate.summary().bad(), 0u);
}

TEST(Quality, NanWindowDetected) {
  SignalQualityGate gate;
  auto window = testing::sine(12.0, 256.0, kWindow, 10.0);
  window[17] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(gate.assess(window).verdict, QualityVerdict::kNan);
}

TEST(Quality, FlatlineDetected) {
  SignalQualityGate gate;
  const std::vector<double> window(kWindow, 3.0);  // DC offset, zero stddev
  const QualityReport report = gate.assess(window);
  EXPECT_EQ(report.verdict, QualityVerdict::kFlatline);
  EXPECT_LT(report.stddev, kFlatlineStddev);
}

TEST(Quality, SaturationDetected) {
  SignalQualityGate gate;
  auto window = testing::sine(12.0, 256.0, kWindow, 10.0);
  // Clip 10% of samples to the rails (default threshold is 5%).
  for (std::size_t i = 0; i < kWindow / 10; ++i) {
    window[i * 10] = (i % 2 == 0) ? 150.0 : -150.0;
  }
  const QualityReport report = gate.assess(window);
  EXPECT_EQ(report.verdict, QualityVerdict::kSaturated);
  EXPECT_GT(report.saturated_fraction, kSaturationFraction);
}

TEST(Quality, HighAmplitudeArtifactDetected) {
  SignalQualityGate gate;
  auto window = testing::sine(12.0, 256.0, kWindow, 10.0);
  window[100] = 60.0;  // a single electrode-pop-sized spike
  const QualityReport report = gate.assess(window);
  EXPECT_EQ(report.verdict, QualityVerdict::kArtifact);
  EXPECT_DOUBLE_EQ(report.peak_abs, 60.0);
}

TEST(Quality, NanOutranksEveryOtherVerdict) {
  SignalQualityGate gate;
  std::vector<double> window(kWindow,
                             std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(gate.assess(window).verdict, QualityVerdict::kNan);
}

TEST(Quality, SummaryCountsPerReason) {
  SignalQualityGate gate;
  gate.assess(testing::sine(12.0, 256.0, kWindow, 10.0));
  gate.assess(std::vector<double>(kWindow, 0.0));
  auto spiky = testing::sine(12.0, 256.0, kWindow, 10.0);
  spiky[5] = 99.0;
  gate.assess(spiky);
  const QualitySummary summary = gate.summary();
  EXPECT_EQ(summary.assessed, 3u);
  EXPECT_EQ(summary.good, 1u);
  EXPECT_EQ(summary.flatline, 1u);
  EXPECT_EQ(summary.artifact, 1u);
  EXPECT_EQ(summary.bad(), 2u);
}

TEST(Quality, VerdictNamesAreStable) {
  EXPECT_STREQ(quality_verdict_name(QualityVerdict::kGood), "good");
  EXPECT_STREQ(quality_verdict_name(QualityVerdict::kNan), "nan");
  EXPECT_STREQ(quality_verdict_name(QualityVerdict::kFlatline), "flatline");
  EXPECT_STREQ(quality_verdict_name(QualityVerdict::kSaturated),
               "saturated");
  EXPECT_STREQ(quality_verdict_name(QualityVerdict::kArtifact), "artifact");
}

TEST(Quality, MetricsExportPerReasonCounts) {
  obs::MetricsRegistry registry;
  SignalQualityGate gate(&registry);
  gate.assess(std::vector<double>(kWindow, 0.0));
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("emap_robust_quality_windows_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("emap_robust_quality_bad_windows_total{"
                      "reason=\"flatline\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace emap::robust
