// Per-window signal-quality gate.
//
// Scalp EEG at the edge is contaminated exactly where the paper says it is
// (Section III: electrode placement makes it "highly susceptible to
// noise").  The bandpass helps against line noise but an electrode pop or
// a saturated amplifier produces a window whose area-between-curves
// verdicts are garbage — tracked signals get evicted en masse and the
// resulting P_A swing masquerades as anomaly onset.  The gate classifies
// each *raw* window (before the FIR, which would smear a rail-flat or
// clipped segment into something plausible) with four cheap dsp/stats
// checks, in order:
//
//   NaN       any non-finite sample (acquisition fault)
//   flatline  stddev below a floor (detached electrode / rail)
//   saturated too many samples at or beyond the clip amplitude
//   artifact  peak amplitude beyond the physiological limit (pop, blink)
//
// Bad windows still pass through the FIR (streaming filter continuity) but
// are excluded from tracking and P_A updates, and counted per reason under
// `emap_robust_quality_*`.  Thresholds sit well above the synthesizer's
// clean amplitude scale, so a default clean run gates nothing and stays
// bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>

#include "emap/obs/metrics.hpp"

namespace emap::robust {

/// Per-window verdict, most severe first match wins.
enum class QualityVerdict : std::uint8_t {
  kGood = 0,
  kNan,
  kFlatline,
  kSaturated,
  kArtifact,
};

/// Lowercase verdict label ("good", "nan", "flatline", ...).
const char* quality_verdict_name(QualityVerdict verdict);

// Gate thresholds, calibrated against the synthesizer's clean recordings
// (peak amplitude ~10-15 units) and its artifact models (electrode pop 60,
// blink 40): clean windows always pass.

/// Windows with stddev below this are flatline.
inline constexpr double kFlatlineStddev = 1e-3;
/// |sample| at or beyond this counts as clipped.
inline constexpr double kSaturationLimit = 100.0;
/// Fraction of clipped samples above which the window is saturated.
inline constexpr double kSaturationFraction = 0.05;
/// Peak |sample| beyond this is a high-amplitude artifact.
inline constexpr double kAmplitudeLimit = 50.0;

/// What the gate saw in one window.
struct QualityReport {
  QualityVerdict verdict = QualityVerdict::kGood;
  double stddev = 0.0;
  double peak_abs = 0.0;
  double saturated_fraction = 0.0;

  bool good() const { return verdict == QualityVerdict::kGood; }
};

/// Per-run counters, embeddable in the RunResult robustness summary.
struct QualitySummary {
  std::size_t assessed = 0;
  std::size_t good = 0;
  std::size_t nan = 0;
  std::size_t flatline = 0;
  std::size_t saturated = 0;
  std::size_t artifact = 0;

  std::size_t bad() const { return assessed - good; }
};

/// The stateful gate (counters + cached metric handles).
class SignalQualityGate {
 public:
  /// `registry` is borrowed and may be null (summary-only operation).
  explicit SignalQualityGate(obs::MetricsRegistry* registry = nullptr);

  /// Classifies one raw window and updates the counters.
  QualityReport assess(std::span<const double> raw_window);

  QualitySummary summary() const;

 private:
  mutable std::mutex mutex_;
  QualitySummary summary_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* assessed_metric_ = nullptr;
};

}  // namespace emap::robust
