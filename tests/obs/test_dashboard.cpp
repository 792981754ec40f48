#include "emap/obs/dashboard.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "emap/common/error.hpp"
#include "emap/obs/slo.hpp"

namespace emap::obs {
namespace {

std::filesystem::path temp_file(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

std::vector<SeriesBucket> step_series(std::size_t n, std::size_t step_at,
                                      double low, double high,
                                      double noise = 0.0) {
  std::vector<SeriesBucket> buckets(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = i < step_at ? low : high;
    const double value =
        base + noise * std::sin(0.9 * static_cast<double>(i));
    buckets[i].t_start_sec = static_cast<double>(i);
    buckets[i].t_end_sec = static_cast<double>(i);
    buckets[i].min = buckets[i].max = value;
    buckets[i].first = buckets[i].last = value;
    buckets[i].sum = value;
    buckets[i].count = 1;
  }
  return buckets;
}

TEST(LoadRecordJsonl, PivotsNumericColumnsIntoSeries) {
  const auto path = temp_file("emap_dashboard_record.jsonl");
  {
    std::ofstream stream(path);
    stream << R"({"window":0,"t_sec":1,"tracked":false,"pa_on_load":-1,)"
           << R"("no_call_reason":"in_flight","track_device_sec":null})"
           << "\n";
    stream << R"({"window":1,"t_sec":2,"tracked":true,"pa_on_load":0.25,)"
           << R"("no_call_reason":"none","track_device_sec":0.125})"
           << "\n";
  }
  const SeriesLoadResult loaded = load_record_jsonl(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.skipped_lines, 0u);
  // Numeric and boolean columns only, t_sec is the time axis, strings
  // are left out.  Columns come in first-seen order (key order within a
  // line); a null value leaves its window out of that column only.
  ASSERT_EQ(loaded.series.size(), 4u);
  EXPECT_EQ(loaded.series[0].key, "pa_on_load");
  EXPECT_EQ(loaded.series[1].key, "tracked");
  EXPECT_EQ(loaded.series[2].key, "window");
  EXPECT_EQ(loaded.series[3].key, "track_device_sec");
  ASSERT_EQ(loaded.series[0].buckets.size(), 2u);
  EXPECT_EQ(loaded.series[0].buckets[0].last, -1.0);
  EXPECT_EQ(loaded.series[0].buckets[1].last, 0.25);
  EXPECT_EQ(loaded.series[0].buckets[1].t_start_sec, 2.0);
  EXPECT_EQ(loaded.series[0].buckets[1].count, 1u);
  EXPECT_EQ(loaded.series[1].buckets[0].last, 0.0);
  EXPECT_EQ(loaded.series[1].buckets[1].last, 1.0);
  ASSERT_EQ(loaded.series[3].buckets.size(), 1u);
  EXPECT_EQ(loaded.series[3].buckets[0].t_start_sec, 2.0);
  EXPECT_EQ(loaded.series[3].buckets[0].last, 0.125);
}

TEST(LoadRecordJsonl, SkipsMalformedLinesLeniently) {
  const auto path = temp_file("emap_dashboard_malformed.jsonl");
  {
    std::ofstream stream(path);
    stream << R"({"window":0,"t_sec":1,"anomaly_probability":0.5})" << "\n";
    stream << "this is not json\n";
    stream << R"({"window":1,"t_sec":2)"  // cut off
           << "\n";
    stream << R"({"window":2,"anomaly_probability":0.5})"  // no t_sec
           << "\n";
    stream << "\n";  // blank: ignored, not counted as skipped
  }
  const SeriesLoadResult loaded = load_record_jsonl(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.series.size(), 2u);
  EXPECT_EQ(loaded.series[0].buckets.size(), 1u);
  EXPECT_EQ(loaded.skipped_lines, 3u);
}

TEST(LoadRecordJsonl, ThrowsOnMissingFile) {
  EXPECT_THROW(load_record_jsonl("/nonexistent/record.jsonl"), IoError);
}

TEST(LoadRecordJsonl, ReadsAlertTransitionsFromTheRecord) {
  // Two windows of the burn rule: firing at t=6, resolved at t=7.  The
  // second trace id is all digits, so only its key keeps it out of the
  // series.
  const auto path = temp_file("emap_dashboard_alerts.jsonl");
  {
    std::ofstream stream(path);
    stream << R"({"window":5,"t_sec":6,"trace_id":"ef512c76d9c5eabe",)"
           << R"("alert_edge_iteration_burn":"firing",)"
           << R"("alert_edge_iteration_burn_value":9,)"
           << R"("alert_edge_iteration_burn_threshold":1})"
           << "\n";
    stream << R"({"window":6,"t_sec":7,"trace_id":"1234567890123456",)"
           << R"("alert_edge_iteration_burn":"resolved",)"
           << R"("alert_edge_iteration_burn_value":0.5,)"
           << R"("alert_edge_iteration_burn_threshold":1})"
           << "\n";
  }
  const SeriesLoadResult loaded = load_record_jsonl(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.skipped_lines, 0u);
  ASSERT_EQ(loaded.alerts.size(), 2u);
  EXPECT_EQ(loaded.alerts[0].rule, "edge_iteration_burn");
  EXPECT_TRUE(loaded.alerts[0].firing);
  EXPECT_EQ(loaded.alerts[0].t_sec, 6.0);
  EXPECT_EQ(loaded.alerts[0].value, 9.0);
  EXPECT_EQ(loaded.alerts[0].threshold, kBurnRateLimit);
  EXPECT_FALSE(loaded.alerts[1].firing);
  EXPECT_EQ(loaded.alerts[1].t_sec, 7.0);
  EXPECT_EQ(loaded.alerts[1].value, 0.5);
  // Only the window column is a series.
  ASSERT_EQ(loaded.series.size(), 1u);
  EXPECT_EQ(loaded.series[0].key, "window");
}

TEST(CusumChangepoint, LocatesACleanStep) {
  const auto buckets = step_series(100, 60, 1.0, 2.0, /*noise=*/0.05);
  const Changepoint cp = cusum_changepoint(buckets);
  ASSERT_TRUE(cp.found);
  // Excursion starts at (or within a couple of buckets after) the step.
  EXPECT_GE(cp.bucket_index, 58u);
  EXPECT_LE(cp.bucket_index, 63u);
  EXPECT_NEAR(cp.shift, 1.0, 0.2);
  EXPECT_EQ(cp.t_sec, buckets[cp.bucket_index].t_start_sec);
}

TEST(CusumChangepoint, FindsDownwardShifts) {
  const auto buckets = step_series(80, 40, 5.0, 3.0, 0.05);
  const Changepoint cp = cusum_changepoint(buckets);
  ASSERT_TRUE(cp.found);
  EXPECT_GE(cp.bucket_index, 38u);
  EXPECT_LE(cp.bucket_index, 43u);
  EXPECT_LT(cp.shift, 0.0);
}

TEST(CusumChangepoint, QuietOnStationaryOrDegenerateInput) {
  EXPECT_FALSE(cusum_changepoint({}).found);
  EXPECT_FALSE(cusum_changepoint(step_series(3, 2, 1.0, 9.0)).found);
  // Constant series: stddev 0, nothing to standardize against.
  EXPECT_FALSE(cusum_changepoint(step_series(50, 50, 1.0, 1.0)).found);
  // Stationary noise should not cross h=5.
  EXPECT_FALSE(
      cusum_changepoint(step_series(200, 200, 1.0, 1.0, 0.3)).found);
}

TEST(Sparkline, MapsRangeOntoBlocksAtRequestedWidth) {
  const std::string flat = sparkline({1.0, 1.0, 1.0, 1.0}, 4);
  EXPECT_FALSE(flat.empty());
  const std::string ramp =
      sparkline({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, 8);
  // 8 glyphs, each a 3-byte UTF-8 block character.
  EXPECT_EQ(ramp.size(), 8u * 3u);
  EXPECT_EQ(ramp.substr(0, 3), "▁");
  EXPECT_EQ(ramp.substr(ramp.size() - 3), "█");
  // More values than columns: resampled, still `width` glyphs.
  std::vector<double> many(100);
  for (std::size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<double>(i);
  }
  EXPECT_EQ(sparkline(many, 10).size(), 10u * 3u);
  EXPECT_TRUE(sparkline({}, 10).empty());
}

TEST(RenderAsciiReport, ShowsSeriesAlertsAndChangepoints) {
  SeriesLoadResult series;
  series.series.push_back(
      {"track_device_sec", step_series(100, 60, 0.1, 0.4, 0.005)});
  series.series.push_back({"tracked_after", step_series(100, 100, 50.0, 50.0)});
  series.alerts.push_back({"track_latency_step", 62.0, true, 0.4, 0.12});

  const std::string report = render_ascii_report(series);
  EXPECT_NE(report.find("track_device_sec"), std::string::npos);
  EXPECT_NE(report.find("tracked_after"), std::string::npos);
  EXPECT_NE(report.find("changepoint"), std::string::npos);
  EXPECT_NE(report.find("track_latency_step"), std::string::npos);
  EXPECT_NE(report.find("FIRING"), std::string::npos);

  // Filter narrows the table to matching keys.
  const std::string filtered = render_ascii_report(series, "device");
  EXPECT_NE(filtered.find("track_device_sec"), std::string::npos);
  EXPECT_EQ(filtered.find("tracked_after"), std::string::npos);
}

TEST(RenderAsciiReport, HandlesEmptyInputs) {
  const std::string report = render_ascii_report(SeriesLoadResult{});
  EXPECT_FALSE(report.empty());
}

TEST(RenderHtmlReport, SelfContainedWithMarkersAndEscaping) {
  SeriesLoadResult series;
  series.series.push_back(
      {"emap_g{shard=\"<0>\"}", step_series(50, 30, 1.0, 2.0, 0.02)});
  series.alerts.push_back({"rule_a", 31.0, true, 2.0, 1.1});

  const std::string html = render_html_report(series);
  EXPECT_NE(html.find("<html"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("polyline"), std::string::npos);
  EXPECT_NE(html.find("rule_a"), std::string::npos);
  // The raw label must be escaped, never embedded verbatim.
  EXPECT_EQ(html.find("shard=\"<0>\""), std::string::npos);
  EXPECT_NE(html.find("&lt;0&gt;"), std::string::npos);
  // No external assets: self-contained page.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
}

}  // namespace
}  // namespace emap::obs
