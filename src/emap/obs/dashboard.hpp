// Post-run dashboard: renders a time-series JSONL export (and optional
// alert transitions) into an ASCII sparkline table and a self-contained
// HTML page, with a CUSUM changepoint pass per series.
//
// This is the read side of timeseries.hpp/alert.hpp, consumed by
// `emapctl report`.  Loading follows the tracecat convention: malformed
// lines are skipped and counted, never fatal, so a report still renders
// from a truncated file.
//
// The CUSUM pass answers "when did this series change level?" after the
// fact: per-bucket means are standardized against the series' own
// mean/stddev, and the changepoint is the peak of the cumulative-sum
// curve of those deviations (the offline CUSUM estimator — a level shift
// makes |ΣZ| a tent whose apex is the shift bucket).  `h` gates the peak
// height and `k` the implied shift, which in the soak test lands the
// estimate within a couple of scrape intervals of the injected step.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "emap/obs/timeseries.hpp"

namespace emap::obs {

/// One series parsed back from TimeSeriesStore::to_jsonl output.
struct LoadedSeries {
  std::string key;
  std::string kind;  ///< "counter" | "gauge" | "sample"
  std::vector<SeriesBucket> buckets;  ///< chronological, as exported
};

struct SeriesLoadResult {
  std::vector<LoadedSeries> series;  ///< in file order (first-scrape order)
  std::size_t skipped_lines = 0;
};

/// Loads a series JSONL file; throws on open failure, skips bad lines.
SeriesLoadResult load_series_jsonl(const std::filesystem::path& path);

/// One alert transition parsed back from AlertEngine::to_jsonl output.
struct LoadedAlertTransition {
  std::string rule;
  std::string series;
  double t_sec = 0.0;
  bool firing = false;
  double value = 0.0;
  double threshold = 0.0;
};

struct AlertLoadResult {
  std::vector<LoadedAlertTransition> transitions;
  std::size_t skipped_lines = 0;
};

AlertLoadResult load_alerts_jsonl(const std::filesystem::path& path);

/// Result of the CUSUM pass over one series.
struct Changepoint {
  bool found = false;
  std::size_t bucket_index = 0;  ///< first bucket of the new level
  double t_sec = 0.0;            ///< that bucket's start time
  double shift = 0.0;            ///< mean after - mean before, in raw units
};

/// Offline CUSUM over the per-bucket means.  `h` is the minimum peak of
/// the standardized cumulative-sum curve (stddev-bucket units) and `k`
/// the minimum level shift in stddevs; both must clear for found=true.
/// Returns found=false for constant or short (< 4 bucket) series.
Changepoint cusum_changepoint(const std::vector<SeriesBucket>& buckets,
                              double k = 0.5, double h = 5.0);

/// `width`-character sparkline of `values` (min..max mapped onto eight
/// block glyphs); values are resampled onto the width by bucketing.
std::string sparkline(const std::vector<double>& values, std::size_t width);

struct ReportOptions {
  std::size_t spark_width = 48;
  double cusum_k = 0.5;
  double cusum_h = 5.0;
  /// Render only series whose key contains this substring (empty = all).
  std::string series_filter;
};

/// Plain-text dashboard: one row per series (count span min/mean/max,
/// sparkline, changepoint), then an alert-transition table.
std::string render_ascii_report(const SeriesLoadResult& series,
                                const AlertLoadResult& alerts,
                                const ReportOptions& options = {});

/// Self-contained HTML page (inline SVG charts, alert markers, no
/// external assets).
std::string render_html_report(const SeriesLoadResult& series,
                               const AlertLoadResult& alerts,
                               const ReportOptions& options = {});

}  // namespace emap::obs
