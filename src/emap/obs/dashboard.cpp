#include "emap/obs/dashboard.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

#include "emap/common/error.hpp"
#include "emap/obs/tracecat.hpp"  // parse_flat_json

namespace emap::obs {

namespace {

// Changepoint gates (see cusum_changepoint) and the ASCII sparkline width.
constexpr double kCusumK = 0.5;
constexpr double kCusumH = 5.0;
constexpr std::size_t kSparkWidth = 48;

/// Key prefix of a record line's alert-transition fields.
constexpr std::string_view kAlertPrefix = "alert_";

double field_number(const std::map<std::string, std::string>& fields,
                    const std::string& key, double fallback = 0.0) {
  const auto found = fields.find(key);
  if (found == fields.end()) {
    return fallback;
  }
  try {
    return std::stod(found->second);
  } catch (const std::exception&) {
    return fallback;
  }
}

/// A record value as a number: JSON booleans as 0/1, otherwise the whole
/// token must parse to a finite value (so string columns — including a
/// quality verdict named "nan" — and null are not numbers).
bool record_number(const std::string& text, double* out) {
  if (text == "true" || text == "false") {
    *out = text == "true" ? 1.0 : 0.0;
    return true;
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

std::string format_number(double value) {
  char buffer[32];
  if (value == 0.0) {
    return "0";
  }
  const double magnitude = std::fabs(value);
  if (magnitude >= 0.001 && magnitude < 100000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3e", value);
  }
  return buffer;
}

}  // namespace

SeriesLoadResult load_record_jsonl(const std::filesystem::path& path) {
  std::ifstream stream(path);
  if (!stream) {
    throw IoError("load_record_jsonl: cannot open " + path.string());
  }
  SeriesLoadResult result;
  std::map<std::string, std::size_t> index;
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) {
      continue;
    }
    std::map<std::string, std::string> fields;
    double t_sec = 0.0;
    if (!parse_flat_json(line, fields) || !fields.count("t_sec") ||
        !record_number(fields["t_sec"], &t_sec)) {
      ++result.skipped_lines;
      continue;
    }
    for (const auto& [key, text] : fields) {
      if (key.starts_with(kAlertPrefix)) {
        if (text == "firing" || text == "resolved") {
          LoadedAlertTransition transition;
          transition.rule = key.substr(kAlertPrefix.size());
          transition.t_sec = t_sec;
          transition.firing = text == "firing";
          transition.value = field_number(fields, key + "_value");
          transition.threshold = field_number(fields, key + "_threshold");
          result.alerts.push_back(std::move(transition));
        }
        continue;
      }
      double value = 0.0;
      if (key == "t_sec" || key == "trace_id" ||
          !record_number(text, &value)) {
        continue;
      }
      const auto found = index.try_emplace(key, result.series.size());
      if (found.second) {
        result.series.push_back({key, {}});
      }
      SeriesBucket bucket;
      bucket.t_start_sec = bucket.t_end_sec = t_sec;
      bucket.min = bucket.max = bucket.sum = value;
      bucket.first = bucket.last = value;
      bucket.count = 1;
      result.series[found.first->second].buckets.push_back(bucket);
    }
  }
  return result;
}

Changepoint cusum_changepoint(const std::vector<SeriesBucket>& buckets) {
  Changepoint result;
  const std::size_t n = buckets.size();
  if (n < 4) {
    return result;
  }
  double mean = 0.0;
  for (const SeriesBucket& bucket : buckets) {
    mean += bucket.mean();
  }
  mean /= static_cast<double>(n);
  double variance = 0.0;
  for (const SeriesBucket& bucket : buckets) {
    const double d = bucket.mean() - mean;
    variance += d * d;
  }
  variance /= static_cast<double>(n);
  const double stddev = std::sqrt(variance);
  if (stddev <= 0.0 || !std::isfinite(stddev)) {
    return result;  // constant series: no changepoint by definition
  }
  // Offline CUSUM: prefix sums of the standardized series.  P_0 = P_n = 0
  // by construction, and a level shift at bucket m makes |P| a tent with
  // its peak at exactly m (the pre-shift buckets all sit on one side of
  // the global mean), so the changepoint estimate is argmax_j |P_j|.
  // The online S+/S- recursion would mislocate here: against the global
  // mean of a stepped series the *baseline* drifts too, and its excursion
  // starts at bucket 0.
  double prefix = 0.0;
  double peak = 0.0;
  std::size_t peak_index = 0;
  for (std::size_t j = 1; j < n; ++j) {
    prefix += (buckets[j - 1].mean() - mean) / stddev;
    if (std::abs(prefix) > peak) {
      peak = std::abs(prefix);
      peak_index = j;
    }
  }
  if (peak_index == 0) {
    return result;
  }
  double before_sum = 0.0, after_sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    (j < peak_index ? before_sum : after_sum) += buckets[j].mean();
  }
  const double before_mean =
      before_sum / static_cast<double>(peak_index);
  const double after_mean =
      after_sum / static_cast<double>(n - peak_index);
  // Two gates reject stationary wobble: the excursion must clear h
  // (stddev-bucket units — a bounded oscillation's prefix sums stay
  // small) and the implied level shift must clear k stddevs.
  if (peak <= kCusumH ||
      std::abs(after_mean - before_mean) <= kCusumK * stddev) {
    return result;
  }
  result.found = true;
  result.bucket_index = peak_index;
  result.t_sec = buckets[peak_index].t_start_sec;
  result.shift = after_mean - before_mean;
  return result;
}

std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kGlyphs[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty() || width == 0) {
    return {};
  }
  double lo = values[0], hi = values[0];
  for (const double value : values) {
    lo = std::min(lo, value);
    hi = std::max(hi, value);
  }
  const double span = hi - lo;
  std::string out;
  const std::size_t columns = std::min(width, values.size());
  for (std::size_t column = 0; column < columns; ++column) {
    // Resample by averaging each column's slice of the value range.
    const std::size_t begin = column * values.size() / columns;
    const std::size_t end =
        std::max(begin + 1, (column + 1) * values.size() / columns);
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += values[i];
    }
    const double value = sum / static_cast<double>(end - begin);
    std::size_t level = 0;
    if (span > 0.0) {
      level = static_cast<std::size_t>((value - lo) / span * 7.0 + 0.5);
      level = std::min<std::size_t>(level, 7);
    }
    out += kGlyphs[level];
  }
  return out;
}

namespace {

std::vector<double> bucket_means(const LoadedSeries& series) {
  std::vector<double> means;
  means.reserve(series.buckets.size());
  for (const SeriesBucket& bucket : series.buckets) {
    means.push_back(bucket.mean());
  }
  return means;
}

bool series_selected(const LoadedSeries& series,
                     const std::string& series_filter) {
  return series_filter.empty() ||
         series.key.find(series_filter) != std::string::npos;
}

}  // namespace

std::string render_ascii_report(const SeriesLoadResult& series,
                                const std::string& series_filter) {
  std::ostringstream out;
  out << "series report (" << series.series.size() << " series";
  if (series.skipped_lines > 0) {
    out << ", " << series.skipped_lines << " lines skipped";
  }
  out << ")\n\n";
  std::size_t key_width = 6;
  for (const LoadedSeries& one : series.series) {
    if (series_selected(one, series_filter)) {
      key_width = std::max(key_width, one.key.size());
    }
  }
  key_width = std::min<std::size_t>(key_width, 56);
  for (const LoadedSeries& one : series.series) {
    if (!series_selected(one, series_filter)) {
      continue;
    }
    const std::vector<double> means = bucket_means(one);
    double lo = means.empty() ? 0.0 : means[0];
    double hi = lo;
    for (const double value : means) {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    std::string key = one.key;
    if (key.size() > key_width) {
      key = key.substr(0, key_width - 3) + "...";
    }
    out << "  " << key << std::string(key_width - key.size() + 2, ' ')
        << sparkline(means, kSparkWidth) << "\n";
    out << "  " << std::string(key_width + 2, ' ') << "n=" << means.size()
        << " min=" << format_number(lo) << " max=" << format_number(hi);
    if (!one.buckets.empty()) {
      out << " last=" << format_number(one.buckets.back().last) << " span=["
          << format_number(one.buckets.front().t_start_sec) << "s, "
          << format_number(one.buckets.back().t_end_sec) << "s]";
    }
    const Changepoint change = cusum_changepoint(one.buckets);
    if (change.found) {
      out << "\n  " << std::string(key_width + 2, ' ')
          << "changepoint t=" << format_number(change.t_sec)
          << "s shift=" << format_number(change.shift);
    }
    out << "\n";
  }
  out << "\nalerts (" << series.alerts.size() << " transitions)\n";
  for (const LoadedAlertTransition& transition : series.alerts) {
    out << "  t=" << format_number(transition.t_sec) << "s  "
        << (transition.firing ? "FIRING  " : "resolved") << "  "
        << transition.rule << "  value=" << format_number(transition.value)
        << " threshold=" << format_number(transition.threshold) << "\n";
  }
  if (series.alerts.empty()) {
    out << "  (none)\n";
  }
  return out.str();
}

namespace {

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One column as an inline SVG polyline with alert + changepoint markers.
std::string svg_chart(const LoadedSeries& series,
                      const std::vector<LoadedAlertTransition>& alerts,
                      const Changepoint& change) {
  constexpr double kWidth = 640.0, kHeight = 80.0, kPad = 4.0;
  const std::vector<SeriesBucket>& buckets = series.buckets;
  if (buckets.empty()) {
    return "<svg width=\"640\" height=\"80\"></svg>";
  }
  const double t0 = buckets.front().t_start_sec;
  const double t1 = std::max(buckets.back().t_end_sec, t0 + 1e-9);
  double lo = buckets[0].mean(), hi = lo;
  for (const SeriesBucket& bucket : buckets) {
    lo = std::min(lo, bucket.mean());
    hi = std::max(hi, bucket.mean());
  }
  const double span = std::max(hi - lo, 1e-12);
  auto x_of = [&](double t) {
    return kPad + (t - t0) / (t1 - t0) * (kWidth - 2 * kPad);
  };
  auto y_of = [&](double v) {
    return kHeight - kPad - (v - lo) / span * (kHeight - 2 * kPad);
  };
  std::ostringstream svg;
  svg << "<svg width=\"" << static_cast<int>(kWidth) << "\" height=\""
      << static_cast<int>(kHeight)
      << "\" style=\"background:#fafafa;border:1px solid #ddd\">";
  svg << "<polyline fill=\"none\" stroke=\"#2a6cc8\" stroke-width=\"1.5\" "
         "points=\"";
  for (const SeriesBucket& bucket : buckets) {
    const double t = 0.5 * (bucket.t_start_sec + bucket.t_end_sec);
    svg << format_number(x_of(t)) << "," << format_number(y_of(bucket.mean()))
        << " ";
  }
  svg << "\"/>";
  if (change.found) {
    const double x = x_of(change.t_sec);
    svg << "<line x1=\"" << format_number(x) << "\" y1=\"0\" x2=\""
        << format_number(x) << "\" y2=\"" << static_cast<int>(kHeight)
        << "\" stroke=\"#c87a2a\" stroke-dasharray=\"4 3\"/>";
  }
  // Alert rules watch registry series, not record columns; every chart
  // shares the run's time axis, so each marks every transition.
  for (const LoadedAlertTransition& alert : alerts) {
    const double x = x_of(alert.t_sec);
    svg << "<line x1=\"" << format_number(x) << "\" y1=\"0\" x2=\""
        << format_number(x) << "\" y2=\"" << static_cast<int>(kHeight)
        << "\" stroke=\"" << (alert.firing ? "#c82a2a" : "#2ac86c")
        << "\"/>";
  }
  svg << "</svg>";
  return svg.str();
}

}  // namespace

std::string render_html_report(const SeriesLoadResult& series,
                               const std::string& series_filter) {
  std::ostringstream out;
  out << "<!doctype html><html><head><meta charset=\"utf-8\">"
         "<title>emap soak report</title><style>"
         "body{font-family:monospace;margin:24px;color:#222}"
         "h1{font-size:18px}h2{font-size:14px}"
         "table{border-collapse:collapse;margin:8px 0}"
         "td,th{border:1px solid #ccc;padding:2px 8px;font-size:12px;"
         "text-align:left}"
         ".firing{color:#c82a2a;font-weight:bold}"
         ".resolved{color:#2ac86c}"
         ".meta{color:#777;font-size:12px}"
         "</style></head><body><h1>emap soak report</h1>";
  out << "<p class=\"meta\">" << series.series.size() << " series, "
      << series.alerts.size() << " alert transitions";
  if (series.skipped_lines > 0) {
    out << " (" << series.skipped_lines << " malformed lines skipped)";
  }
  out << "</p><h2>Alerts</h2>";
  if (series.alerts.empty()) {
    out << "<p class=\"meta\">no transitions</p>";
  } else {
    out << "<table><tr><th>t (s)</th><th>state</th><th>rule</th>"
           "<th>value</th><th>threshold</th></tr>";
    for (const LoadedAlertTransition& transition : series.alerts) {
      out << "<tr><td>" << format_number(transition.t_sec) << "</td><td "
          << (transition.firing ? "class=\"firing\">firing"
                                : "class=\"resolved\">resolved")
          << "</td><td>" << html_escape(transition.rule) << "</td><td>"
          << format_number(transition.value) << "</td><td>"
          << format_number(transition.threshold) << "</td></tr>";
    }
    out << "</table>";
  }
  out << "<h2>Series</h2>";
  for (const LoadedSeries& one : series.series) {
    if (!series_selected(one, series_filter)) {
      continue;
    }
    const Changepoint change = cusum_changepoint(one.buckets);
    out << "<h3 style=\"font-size:13px;margin-bottom:2px\">"
        << html_escape(one.key) << " <span class=\"meta\">("
        << one.buckets.size() << " windows)</span></h3>";
    if (change.found) {
      out << "<p class=\"meta\">changepoint at t="
          << format_number(change.t_sec)
          << "s, shift=" << format_number(change.shift) << "</p>";
    }
    out << svg_chart(one, series.alerts, change);
  }
  out << "</body></html>";
  return out.str();
}

}  // namespace emap::obs
