// Summary statistics of the loop benchmark.
//
// Percentile rule: a tail percentile is reported only when at least
// kTailSamples samples lie beyond it (nearest-rank definition), so p75
// needs 40 samples, p90 needs 100 and p99 needs 1000; the median is always
// reportable.  Asking for a percentile the sample count cannot support
// throws instead of returning a number that one outlier decides.
#pragma once

#include <cstddef>
#include <vector>

namespace loopbench {

inline constexpr std::size_t kTailSamples = 10;

/// Samples of `n` lying strictly beyond the nearest-rank `q` percentile.
std::size_t samples_beyond(std::size_t n, double q);

/// True when `n` samples support the `q` percentile under the rule.
bool percentile_supported(std::size_t n, double q);

/// Highest percentile `n` samples support, as a fraction (at least the
/// median).
double highest_supported_percentile(std::size_t n);

/// Nearest-rank percentile; throws std::invalid_argument when the rule
/// refuses it.  An empty sample (a layer that did no work) reads 0.
double percentile(std::vector<double> values, double q);

/// Median, averaging the middle pair of an even sample.
double median(std::vector<double> values);

/// One monitored session as goodput sees it.
struct SessionOutcome {
  std::size_t windows = 0;
  double wall_sec = 0.0;
  bool passed = false;
};

/// Windows of passing sessions over the wall time of all sessions: a
/// failed session's windows are dropped, its wall time is kept.
class Goodput {
 public:
  void add(const SessionOutcome& outcome);
  double windows_per_sec() const;
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double wall_sec() const { return wall_sec_; }

 private:
  double good_windows_ = 0.0;
  double wall_sec_ = 0.0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace loopbench
