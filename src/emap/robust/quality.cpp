#include "emap/robust/quality.hpp"

#include <cmath>

#include "emap/dsp/stats.hpp"

namespace emap::robust {

const char* quality_verdict_name(QualityVerdict verdict) {
  switch (verdict) {
    case QualityVerdict::kGood:
      return "good";
    case QualityVerdict::kNan:
      return "nan";
    case QualityVerdict::kFlatline:
      return "flatline";
    case QualityVerdict::kSaturated:
      return "saturated";
    case QualityVerdict::kArtifact:
      return "artifact";
  }
  return "?";
}

SignalQualityGate::SignalQualityGate(obs::MetricsRegistry* registry)
    : registry_(registry) {
  if (registry_ != nullptr) {
    assessed_metric_ = &registry_->counter(
        "emap_robust_quality_windows_total", {},
        "Windows assessed by the signal-quality gate");
  }
}

QualityReport SignalQualityGate::assess(std::span<const double> raw_window) {
  QualityReport report;
  bool finite = true;
  std::size_t clipped = 0;
  for (const double sample : raw_window) {
    if (!std::isfinite(sample)) {
      finite = false;
      break;
    }
    if (std::abs(sample) >= kSaturationLimit) {
      ++clipped;
    }
  }
  if (!finite) {
    report.verdict = QualityVerdict::kNan;
  } else {
    report.stddev = dsp::stddev(raw_window);
    report.peak_abs = dsp::peak_abs(raw_window);
    report.saturated_fraction =
        raw_window.empty()
            ? 0.0
            : static_cast<double>(clipped) /
                  static_cast<double>(raw_window.size());
    if (report.stddev < kFlatlineStddev) {
      report.verdict = QualityVerdict::kFlatline;
    } else if (report.saturated_fraction > kSaturationFraction) {
      report.verdict = QualityVerdict::kSaturated;
    } else if (report.peak_abs > kAmplitudeLimit) {
      report.verdict = QualityVerdict::kArtifact;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++summary_.assessed;
    switch (report.verdict) {
      case QualityVerdict::kGood:
        ++summary_.good;
        break;
      case QualityVerdict::kNan:
        ++summary_.nan;
        break;
      case QualityVerdict::kFlatline:
        ++summary_.flatline;
        break;
      case QualityVerdict::kSaturated:
        ++summary_.saturated;
        break;
      case QualityVerdict::kArtifact:
        ++summary_.artifact;
        break;
    }
  }
  if (assessed_metric_ != nullptr) {
    assessed_metric_->increment();
  }
  if (registry_ != nullptr && !report.good()) {
    registry_
        ->counter("emap_robust_quality_bad_windows_total",
                  {{"reason", quality_verdict_name(report.verdict)}},
                  "Windows the quality gate excluded from P_A updates")
        .increment();
  }
  return report;
}

QualitySummary SignalQualityGate::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_;
}

}  // namespace emap::robust
