// Post-run dashboard: renders a per-window decision record (one JSONL
// object per window, core::iteration_json) and the alert transitions it
// carries into an ASCII sparkline table and a self-contained HTML page,
// with a CUSUM changepoint pass per column.
//
// This is the read side of the record, consumed by `emapctl report`.
// Loading follows the tracecat convention: malformed lines are skipped
// and counted, never fatal, so a report still renders from a truncated
// file (a run that died mid-write leaves one).
//
// The CUSUM pass answers "when did this column change level?" after the
// fact: per-window values are standardized against the column's own
// mean/stddev, and the changepoint is the peak of the cumulative-sum
// curve of those deviations (the offline CUSUM estimator — a level shift
// makes |ΣZ| a tent whose apex is the shift window).  The peak height
// must clear h = 5 and the implied shift k = 0.5 stddevs, which in the
// soak test lands the estimate within a couple of windows of the injected
// step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace emap::obs {

/// The closed interval [t_start, t_end] and the aggregates of every value
/// that landed in it (a record column has one value per bucket).
struct SeriesBucket {
  double t_start_sec = 0.0;
  double t_end_sec = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double first = 0.0;   ///< chronologically first value
  double last = 0.0;    ///< chronologically last value
  std::uint64_t count = 0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// One numeric record column as a time series.
struct LoadedSeries {
  std::string key;
  std::vector<SeriesBucket> buckets;  ///< chronological, as exported
};

/// One alert transition read back from a record line's `alert_<rule>`
/// fields.
struct LoadedAlertTransition {
  std::string rule;
  double t_sec = 0.0;  ///< the window's t_sec
  bool firing = false;
  double value = 0.0;
  double threshold = 0.0;
};

struct SeriesLoadResult {
  std::vector<LoadedSeries> series;  ///< in first-seen column order
  std::vector<LoadedAlertTransition> alerts;  ///< in record order
  std::size_t skipped_lines = 0;
};

/// Loads a per-window record and pivots every numeric column (booleans as
/// 0/1) except `t_sec` into a series with one single-value bucket per
/// window, placed at the window's `t_sec`.  String columns, `trace_id`
/// and null values are left out; the `alert_<rule>` fields become
/// `alerts` instead.  Lines without a numeric `t_sec` are skipped.
/// Throws IoError when the file cannot be opened.
SeriesLoadResult load_record_jsonl(const std::filesystem::path& path);

/// Result of the CUSUM pass over one series.
struct Changepoint {
  bool found = false;
  std::size_t bucket_index = 0;  ///< first bucket of the new level
  double t_sec = 0.0;            ///< that bucket's start time
  double shift = 0.0;            ///< mean after - mean before, in raw units
};

/// Offline CUSUM over the per-bucket means.  The peak of the standardized
/// cumulative-sum curve must exceed 5 (stddev-bucket units) and the level
/// shift 0.5 stddevs for found=true.  Returns found=false for constant or
/// short (< 4 bucket) series.
Changepoint cusum_changepoint(const std::vector<SeriesBucket>& buckets);

/// `width`-character sparkline of `values` (min..max mapped onto eight
/// block glyphs); values are resampled onto the width by bucketing.
std::string sparkline(const std::vector<double>& values, std::size_t width);

/// Plain-text dashboard: one row per series (count span min/mean/max,
/// 48-character sparkline, changepoint), then an alert-transition table.
/// Only series whose key contains `series_filter` are rendered (empty =
/// all).
std::string render_ascii_report(const SeriesLoadResult& series,
                                const std::string& series_filter = {});

/// Self-contained HTML page (inline SVG charts, alert markers, no
/// external assets), filtered like render_ascii_report.
std::string render_html_report(const SeriesLoadResult& series,
                               const std::string& series_filter = {});

}  // namespace emap::obs
