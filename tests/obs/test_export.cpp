#include "emap/obs/export.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::obs {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream stream(path);
  std::ostringstream out;
  out << stream.rdbuf();
  return out.str();
}

TEST(Tracer, RecordSimStampsVirtualTime) {
  Tracer tracer;
  const auto parent = tracer.record_sim("call", "cloud-call", 1.0, 4.0);
  tracer.record_sim("delta_CS", "cloud-search", 1.5, 3.0, parent);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].sim_start_sec, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].sim_dur_sec, 3.0);
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_DOUBLE_EQ(testing::busy_seconds(&tracer, "cloud-search"), 1.5);
  EXPECT_DOUBLE_EQ(testing::busy_seconds(&tracer, "absent"), 0.0);
}

TEST(ScopedTimer, RecordsIntoHistogram) {
  Histogram sink;
  { ScopedTimer timer(sink); }
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_GE(sink.sum(), 0.0);
}

/// The chart row of one category, from its label to the closing '|'.
std::string timeline_row(const std::string& chart,
                         const std::string& category) {
  const auto row_start = chart.find(category);
  return chart.substr(row_start, chart.find('\n', row_start) - row_start);
}

TEST(TimelineAscii, ContainsAllRows) {
  Tracer tracer;
  tracer.record_sim("sample", "sample", 0.0, 1.0);
  tracer.record_sim("delta_CS", "cloud-search", 1.0, 4.0);
  const std::string art = render_timeline_ascii(tracer, 10.0, 50);
  EXPECT_NE(art.find("sample"), std::string::npos);
  EXPECT_NE(art.find("cloud-search"), std::string::npos);
  EXPECT_NE(art.find("prediction"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(TimelineAscii, ClipsToHorizon) {
  Tracer tracer;
  tracer.record_sim("sample", "sample", 100.0, 200.0);  // beyond horizon
  const std::string art = render_timeline_ascii(tracer, 10.0, 40);
  // The sample row must contain no marks.
  EXPECT_EQ(timeline_row(art, "sample").find('#'), std::string::npos);
}

TEST(TimelineAscii, ClampsSpanStraddlingHorizon) {
  Tracer tracer;
  tracer.record_sim("track", "edge-track", 8.0, 15.0);  // straddles horizon
  const std::string row =
      timeline_row(render_timeline_ascii(tracer, 10.0, 40), "edge-track");
  const auto open = row.find('|');
  // Marks start at 8 s (column 32 of 40) and run through the final column
  // without indexing past the row.
  EXPECT_EQ(row.find('#'), open + 1 + 32);
  EXPECT_EQ(row.rfind('#'), row.rfind('|') - 1);
}

TEST(Trace, AsciiRenderClampsActivityStraddlingTimeZero) {
  Tracer tracer;
  tracer.record_sim("early", "filter", -5.0, -1.0);  // entirely before zero
  tracer.record_sim("fir", "filter", 0.0, 2.0);
  const std::string row =
      timeline_row(render_timeline_ascii(tracer, 10.0, 40), "filter");
  const auto open = row.find('|');
  // Only the [0, 2] span is drawn, starting at the first column.
  EXPECT_EQ(row.find('#'), open + 1);
  EXPECT_EQ(row.rfind('#'), open + 1 + 8);
}

TEST(TimelineAscii, ClampsSpanStraddlingTimeZero) {
  Tracer tracer;
  tracer.record_sim("fir", "filter", -1.0, 2.0);
  const std::string row =
      timeline_row(render_timeline_ascii(tracer, 10.0, 40), "filter");
  const auto open = row.find('|');
  // The visible [0, 2] part fills the first nine columns.
  EXPECT_EQ(row.find('#'), open + 1);
  EXPECT_EQ(row.rfind('#'), open + 1 + 8);
}

TEST(TimelineView, ProjectsSimSpansOntoActivityRows) {
  Tracer tracer;
  tracer.record_sim("upload", "upload", 0.0, 0.25);
  tracer.record_sim("delta_CS", "cloud-search", 0.25, 2.25);
  tracer.record_sim("early", "cloud-search", -1.0, 0.0);  // ends at zero
  tracer.record_sim("aux", "not-a-row", 0.0, 1.0);
  const std::string art = render_timeline_ascii(tracer, 10.0, 40);
  // 0.25 s per column; a span fills every column it touches.
  const std::string upload = timeline_row(art, "upload");
  EXPECT_EQ(upload.find('#'), upload.find('|') + 1);
  EXPECT_EQ(upload.rfind('#'), upload.find('|') + 1 + 1);
  const std::string search = timeline_row(art, "cloud-search");
  EXPECT_EQ(search.find('#'), search.find('|') + 1 + 1);
  EXPECT_EQ(search.rfind('#'), search.find('|') + 1 + 9);
  // A category that is not one of the Fig. 9 rows gets no row.
  EXPECT_EQ(art.find("not-a-row"), std::string::npos);
  EXPECT_DOUBLE_EQ(testing::busy_seconds(&tracer, "cloud-search"), 2.0);
}

TEST(TimelineAscii, RejectsBadArguments) {
  const Tracer tracer;
  EXPECT_THROW(render_timeline_ascii(tracer, 0.0, 100), InvalidArgument);
  EXPECT_THROW(render_timeline_ascii(tracer, 10.0, 2), InvalidArgument);
}

TEST(ChromeTrace, EmitsNamedTracksAndCompleteEvents) {
  Tracer tracer;
  tracer.record_sim("delta_EC", "upload", 0.5, 0.75);
  const std::string json = to_chrome_trace(tracer);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Track metadata for the Fig. 9 rows plus the span itself.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"upload\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"delta_EC\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // SimTime seconds become microseconds.
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250000"), std::string::npos);
  EXPECT_NE(json.find("\"clock\":\"sim\""), std::string::npos);
}

TEST(ChromeTrace, WritesFileToDisk) {
  testing::TempDir dir("chrome_trace");
  Tracer tracer;
  tracer.record_sim("x", "upload", 0.0, 1.0);
  const auto path = dir.path() / "nested" / "trace.json";
  write_chrome_trace(path, tracer);
  const std::string json = slurp(path);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Prometheus, FormatsCountersGaugesAndHistograms) {
  MetricsRegistry registry;
  registry.counter("emap_events_total", {{"kind", "seizure"}}, "Event count")
      .increment(7);
  registry.gauge("emap_depth", {}, "Queue depth").set(1.5);
  Histogram& histogram = registry.histogram(
      "emap_latency_seconds", {}, Histogram::linear_bounds(0.0, 4.0, 4));
  histogram.observe(0.5);
  histogram.observe(1.5);
  histogram.observe(999.0);  // overflow: only visible via +Inf

  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("# HELP emap_events_total Event count"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE emap_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("emap_events_total{kind=\"seizure\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE emap_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("emap_depth 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE emap_latency_seconds histogram"),
            std::string::npos);
  // Buckets are cumulative; empty bounds are skipped but +Inf always counts
  // everything.
  EXPECT_NE(text.find("emap_latency_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("emap_latency_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_EQ(text.find("le=\"3\""), std::string::npos);
  EXPECT_NE(text.find("emap_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("emap_latency_seconds_sum 1001"), std::string::npos);
  EXPECT_NE(text.find("emap_latency_seconds_count 3"), std::string::npos);
}

TEST(Prometheus, EmitsTypeHeaderOncePerFamily) {
  MetricsRegistry registry;
  registry.counter("emap_msgs_total", {{"direction", "up"}}).increment();
  registry.counter("emap_msgs_total", {{"direction", "down"}}).increment();
  const std::string text = to_prometheus(registry);
  std::size_t headers = 0;
  for (std::size_t pos = text.find("# TYPE emap_msgs_total");
       pos != std::string::npos;
       pos = text.find("# TYPE emap_msgs_total", pos + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u);
}

// promtool-style lint of the exposition text: every line must be a valid
// comment or sample, every family must carry exactly one # HELP and one
// # TYPE emitted before its first sample, and families must not
// interleave.  Histogram families additionally must emit cumulative
// `_bucket{le=...}` series per label-set — ascending le, non-decreasing
// counts, a `+Inf` bucket equal to `_count` — plus `_sum` and `_count`.
// Returns the problems found (empty = lint-clean).
std::vector<std::string> lint_exposition(const std::string& text) {
  std::vector<std::string> problems;
  std::map<std::string, int> help_seen;
  std::map<std::string, int> type_seen;
  std::map<std::string, std::string> type_kind;
  std::set<std::string> sampled;   // families that already emitted samples
  std::set<std::string> finished;  // families whose block was left behind
  std::string current_family;

  // Per histogram series (family + labels minus `le`): the bucket ladder
  // in emission order plus the companion _sum/_count samples.
  struct HistogramSeries {
    std::vector<std::pair<double, double>> buckets;  // le -> cumulative
    bool has_inf = false;
    double inf_count = 0.0;
    bool has_sum = false;
    bool has_count = false;
    double count_value = 0.0;
  };
  std::map<std::string, HistogramSeries> histograms;

  // Splits `{a="1",le="0.5"}` into key/value pairs (no escapes needed for
  // the lint: the exporter escapes label values, and `le` values never
  // contain quotes).
  auto parse_labels = [](const std::string& block,
                         std::vector<std::pair<std::string, std::string>>&
                             labels) {
    std::size_t pos = 1;  // past '{'
    while (pos < block.size() && block[pos] != '}') {
      const std::size_t eq = block.find("=\"", pos);
      if (eq == std::string::npos) {
        return false;
      }
      const std::size_t close = block.find('"', eq + 2);
      if (close == std::string::npos) {
        return false;
      }
      labels.emplace_back(block.substr(pos, eq - pos),
                          block.substr(eq + 2, close - eq - 2));
      pos = close + 1;
      if (pos < block.size() && block[pos] == ',') {
        ++pos;
      }
    }
    return pos < block.size() && block[pos] == '}';
  };

  auto base_family = [](std::string name) {
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s = suffix;
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        return name.substr(0, name.size() - s.size());
      }
    }
    return name;
  };
  auto valid_name = [](const std::string& name) {
    if (name.empty() || (std::isdigit(static_cast<unsigned char>(name[0])))) {
      return false;
    }
    for (char c : name) {
      if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == ':')) {
        return false;
      }
    }
    return true;
  };

  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const auto fail = [&](const std::string& what) {
      problems.push_back("line " + std::to_string(line_no) + ": " + what +
                         ": " + line);
    };
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_help = line[2] == 'H';
      std::istringstream comment(line.substr(7));
      std::string name;
      std::string rest;
      comment >> name;
      std::getline(comment, rest);
      if (!valid_name(name)) {
        fail("bad metric name in comment");
        continue;
      }
      if (!is_help) {
        std::istringstream kind_stream(rest);
        std::string kind;
        kind_stream >> kind;
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          fail("unknown TYPE kind");
        }
        type_kind[name] = kind;
      }
      auto& seen = is_help ? help_seen : type_seen;
      if (++seen[name] > 1) {
        fail("duplicate HELP/TYPE for family");
      }
      if (sampled.count(name) != 0) {
        fail("HELP/TYPE after the family's samples");
      }
      if (name != current_family) {
        if (finished.count(name) != 0) {
          fail("family block interleaved");
        }
        if (!current_family.empty()) {
          finished.insert(current_family);
        }
        current_family = name;
      }
      continue;
    }
    if (line[0] == '#') {
      fail("unknown comment form");
      continue;
    }
    // Sample line: name[{labels}] value
    const std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      fail("sample without value");
      continue;
    }
    const std::string name = line.substr(0, name_end);
    if (!valid_name(name)) {
      fail("bad sample metric name");
      continue;
    }
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        fail("unterminated label set");
        continue;
      }
      value_start = close + 1;
    }
    if (value_start >= line.size() || line[value_start] != ' ') {
      fail("missing space before value");
      continue;
    }
    const std::string value = line.substr(value_start + 1);
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        fail("unparsable sample value");
        continue;
      }
    }
    const std::string family = base_family(name);
    if (type_seen.count(family) == 0) {
      fail("sample before its family's # TYPE");
    }
    // Histogram shape: collect the bucket ladder per label-set for the
    // end-of-text cumulative/`+Inf`/companion checks.
    if (type_kind.count(family) != 0 && type_kind[family] == "histogram") {
      std::vector<std::pair<std::string, std::string>> labels;
      std::string le;
      if (line[name_end] == '{') {
        if (!parse_labels(line.substr(name_end, value_start - name_end),
                          labels)) {
          fail("unparsable label set on histogram sample");
          continue;
        }
      }
      std::string series_key = family;
      for (const auto& [label, label_value] : labels) {
        if (label == "le") {
          le = label_value;
        } else {
          series_key += "," + label + "=" + label_value;
        }
      }
      HistogramSeries& series = histograms[series_key];
      const double sample = std::strtod(value.c_str(), nullptr);
      if (name.size() >= 7 &&
          name.compare(name.size() - 7, 7, "_bucket") == 0) {
        if (le.empty()) {
          fail("histogram _bucket without an le label");
        } else if (le == "+Inf") {
          series.has_inf = true;
          series.inf_count = sample;
        } else {
          series.buckets.emplace_back(std::strtod(le.c_str(), nullptr),
                                      sample);
        }
      } else if (name.size() >= 4 &&
                 name.compare(name.size() - 4, 4, "_sum") == 0) {
        series.has_sum = true;
      } else if (name.size() >= 6 &&
                 name.compare(name.size() - 6, 6, "_count") == 0) {
        series.has_count = true;
        series.count_value = sample;
      }
    }
    if (family != current_family) {
      if (finished.count(family) != 0) {
        fail("family samples interleaved");
      }
      if (!current_family.empty()) {
        finished.insert(current_family);
      }
      current_family = family;
    }
    sampled.insert(family);
  }
  // Finalize the histogram-shape checks over every collected series.
  for (const auto& [series_key, series] : histograms) {
    const auto fail = [&problems, key = series_key](const std::string& what) {
      problems.push_back("histogram " + key + ": " + what);
    };
    for (std::size_t i = 1; i < series.buckets.size(); ++i) {
      if (series.buckets[i].first <= series.buckets[i - 1].first) {
        fail("le bounds not ascending");
      }
      if (series.buckets[i].second < series.buckets[i - 1].second) {
        fail("bucket counts not cumulative");
      }
    }
    if (!series.has_inf) {
      fail("missing +Inf bucket");
    } else {
      if (!series.buckets.empty() &&
          series.inf_count < series.buckets.back().second) {
        fail("+Inf bucket below the last finite bucket");
      }
      if (series.has_count && series.inf_count != series.count_value) {
        fail("+Inf bucket != _count");
      }
    }
    if (!series.has_sum) {
      fail("missing _sum");
    }
    if (!series.has_count) {
      fail("missing _count");
    }
  }
  return problems;
}

TEST(PrometheusLint, FullRegistryExpositionIsLintClean) {
  MetricsRegistry registry;
  // A spread that exercises every exposition shape: multi-series counter
  // families, bare gauges, histograms with +Inf, non-finite values, and
  // names/labels that need sanitizing.
  registry.counter("emap_msgs_total", {{"direction", "up"}}, "Messages")
      .increment(3);
  registry.counter("emap_msgs_total", {{"direction", "down"}}, "Messages")
      .increment(4);
  registry.counter("emap.bad-name", {{"label-key", "v"}}).increment();
  registry.gauge("emap_profiler_alloc_bytes", {{"stage", "search/scan"}},
                 "Bytes")
      .set(4096);
  registry.gauge("emap_nan").set(std::numeric_limits<double>::quiet_NaN());
  Histogram& histogram = registry.histogram(
      "emap_latency_seconds", {{"slo", "edge"}},
      Histogram::linear_bounds(0.0, 4.0, 4), "Latency");
  histogram.observe(0.5);
  histogram.observe(99.0);

  const std::string text = to_prometheus(registry);
  const auto problems = lint_exposition(text);
  EXPECT_TRUE(problems.empty()) << [&] {
    std::string joined;
    for (const auto& problem : problems) {
      joined += problem + "\n";
    }
    return joined;
  }();
}

TEST(PrometheusLint, CatchesBrokenExpositions) {
  EXPECT_FALSE(
      lint_exposition("emap_orphan 1\n").empty());  // sample before TYPE
  EXPECT_FALSE(lint_exposition("# TYPE emap_x counter\n"
                               "# TYPE emap_x counter\n")
                   .empty());  // duplicate TYPE
  EXPECT_FALSE(lint_exposition("# TYPE emap_x counter\n"
                               "emap_x notanumber\n")
                   .empty());  // bad value
  EXPECT_FALSE(lint_exposition("# TYPE emap_a counter\n"
                               "emap_a 1\n"
                               "# TYPE emap_b counter\n"
                               "emap_b 1\n"
                               "emap_a 2\n")
                   .empty());  // interleaved families
}

TEST(PrometheusLint, CatchesBrokenHistogramShapes) {
  // A well-formed histogram block passes.
  EXPECT_TRUE(lint_exposition("# TYPE emap_h histogram\n"
                              "emap_h_bucket{le=\"0.5\"} 1\n"
                              "emap_h_bucket{le=\"1\"} 3\n"
                              "emap_h_bucket{le=\"+Inf\"} 4\n"
                              "emap_h_sum 2.5\n"
                              "emap_h_count 4\n")
                  .empty());
  // Non-cumulative bucket counts.
  EXPECT_FALSE(lint_exposition("# TYPE emap_h histogram\n"
                               "emap_h_bucket{le=\"0.5\"} 3\n"
                               "emap_h_bucket{le=\"1\"} 1\n"
                               "emap_h_bucket{le=\"+Inf\"} 3\n"
                               "emap_h_sum 1\n"
                               "emap_h_count 3\n")
                   .empty());
  // le bounds out of order.
  EXPECT_FALSE(lint_exposition("# TYPE emap_h histogram\n"
                               "emap_h_bucket{le=\"1\"} 1\n"
                               "emap_h_bucket{le=\"0.5\"} 2\n"
                               "emap_h_bucket{le=\"+Inf\"} 2\n"
                               "emap_h_sum 1\n"
                               "emap_h_count 2\n")
                   .empty());
  // Missing +Inf bucket.
  EXPECT_FALSE(lint_exposition("# TYPE emap_h histogram\n"
                               "emap_h_bucket{le=\"0.5\"} 1\n"
                               "emap_h_sum 0.2\n"
                               "emap_h_count 1\n")
                   .empty());
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(lint_exposition("# TYPE emap_h histogram\n"
                               "emap_h_bucket{le=\"+Inf\"} 3\n"
                               "emap_h_sum 1\n"
                               "emap_h_count 4\n")
                   .empty());
  // Missing _sum / _count companions.
  EXPECT_FALSE(lint_exposition("# TYPE emap_h histogram\n"
                               "emap_h_bucket{le=\"+Inf\"} 1\n")
                   .empty());
  // Label-sets are independent series: one per slo, both checked.
  EXPECT_TRUE(lint_exposition("# TYPE emap_h histogram\n"
                              "emap_h_bucket{le=\"1\",slo=\"a\"} 1\n"
                              "emap_h_bucket{le=\"+Inf\",slo=\"a\"} 1\n"
                              "emap_h_sum{slo=\"a\"} 0.4\n"
                              "emap_h_count{slo=\"a\"} 1\n"
                              "emap_h_bucket{le=\"1\",slo=\"b\"} 2\n"
                              "emap_h_bucket{le=\"+Inf\",slo=\"b\"} 2\n"
                              "emap_h_sum{slo=\"b\"} 0.9\n"
                              "emap_h_count{slo=\"b\"} 2\n")
                  .empty());
}

TEST(PrometheusSanitize, PassesLegalNamesThrough) {
  EXPECT_EQ(prometheus_sanitize_name("emap_slo_burn_rate"),
            "emap_slo_burn_rate");
  EXPECT_EQ(prometheus_sanitize_name("ns:metric_total"), "ns:metric_total");
  EXPECT_EQ(prometheus_sanitize_name("_private"), "_private");
}

TEST(PrometheusSanitize, ReplacesReservedCharacters) {
  EXPECT_EQ(prometheus_sanitize_name("emap.latency-seconds"),
            "emap_latency_seconds");
  EXPECT_EQ(prometheus_sanitize_name("per cent %"), "per_cent__");
  EXPECT_EQ(prometheus_sanitize_name("a{b}c\"d"), "a_b_c_d");
}

TEST(PrometheusSanitize, LabelNamesRejectColons) {
  EXPECT_EQ(prometheus_sanitize_name("ns:label", /*is_label=*/true),
            "ns_label");
  EXPECT_EQ(prometheus_sanitize_name("ns:metric", /*is_label=*/false),
            "ns:metric");
}

TEST(PrometheusSanitize, LeadingDigitGainsUnderscore) {
  EXPECT_EQ(prometheus_sanitize_name("95th_percentile"), "_95th_percentile");
  EXPECT_EQ(prometheus_sanitize_name(""), "_");
}

TEST(Prometheus, SanitizesMetricAndLabelNamesInExposition) {
  MetricsRegistry registry;
  registry.counter("emap.bad-name", {{"label-key", "value"}}).increment(2);
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("emap_bad_name{label_key=\"value\"} 2"),
            std::string::npos);
  EXPECT_EQ(text.find("emap.bad-name"), std::string::npos);
}

TEST(Prometheus, DropsEmptyLabelKeys) {
  MetricsRegistry registry;
  registry.counter("emap_total", {{"", "orphan"}, {"kept", "yes"}})
      .increment();
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("emap_total{kept=\"yes\"} 1"), std::string::npos);
  EXPECT_EQ(text.find("orphan"), std::string::npos);
}

TEST(Prometheus, AllEmptyLabelsCollapseToBareSeries) {
  MetricsRegistry registry;
  registry.counter("emap_total", {{"", "x"}}).increment();
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("emap_total 1"), std::string::npos);
  EXPECT_EQ(text.find('{'), std::string::npos);
}

TEST(Prometheus, NonFiniteGaugeValuesUseExpositionSpelling) {
  MetricsRegistry registry;
  registry.gauge("emap_nan").set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("emap_inf").set(std::numeric_limits<double>::infinity());
  registry.gauge("emap_ninf").set(-std::numeric_limits<double>::infinity());
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("emap_nan NaN"), std::string::npos);
  EXPECT_NE(text.find("emap_inf +Inf"), std::string::npos);
  EXPECT_NE(text.find("emap_ninf -Inf"), std::string::npos);
}

TEST(Prometheus, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("emap_total", {{"path", "a\"b\\c\nd"}}).increment();
  const std::string text = to_prometheus(registry);
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(Prometheus, WritesFileToDisk) {
  testing::TempDir dir("prometheus");
  MetricsRegistry registry;
  registry.counter("emap_total").increment();
  const auto path = dir.path() / "metrics.prom";
  write_prometheus(path, registry);
  EXPECT_NE(slurp(path).find("emap_total 1"), std::string::npos);
}

TEST(MetricsTable, ListsEveryRegisteredSeries) {
  MetricsRegistry registry;
  registry.counter("emap_calls_total").increment(3);
  registry.histogram("emap_wait_seconds").observe(0.25);
  const std::string table = metrics_table(registry);
  EXPECT_NE(table.find("emap_calls_total"), std::string::npos);
  EXPECT_NE(table.find("emap_wait_seconds"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);
}

TEST(JsonWriter, BuildsFlatObjectsOfEveryFieldType) {
  JsonWriter json;
  json.field("run", std::string("monitor"))
      .field("windows", std::uint64_t{12})
      .field("delta", 0.5)
      .field("alarm", true);
  EXPECT_EQ(json.str(),
            "{\"run\":\"monitor\",\"windows\":12,\"delta\":0.5,"
            "\"alarm\":true}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.field("x", std::numeric_limits<double>::infinity());
  EXPECT_EQ(json.str(), "{\"x\":null}");
}

TEST(JsonEscape, HandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscape, EscapesEveryC0ControlCharacter) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped = json_escape(std::string(1, char(c)));
    ASSERT_GE(escaped.size(), 2u) << "control char " << c;
    EXPECT_EQ(escaped[0], '\\') << "control char " << c;
  }
}

TEST(JsonEscape, PassesHighBytesThroughUnchanged) {
  // UTF-8 multi-byte sequences must survive verbatim.
  const std::string utf8 = "\xc3\xa9\xe2\x82\xac";  // "é€"
  EXPECT_EQ(json_escape(utf8), utf8);
}

TEST(JsonWriter, EscapesKeysAndStringValues) {
  JsonWriter json;
  json.field("ke\"y", std::string("va\\lue\n"));
  EXPECT_EQ(json.str(), "{\"ke\\\"y\":\"va\\\\lue\\n\"}");
}

TEST(AppendJsonl, AppendsOneLinePerCall) {
  testing::TempDir dir("jsonl");
  const auto path = dir.path() / "deep" / "run.jsonl";
  append_jsonl_line(path, "{\"a\":1}");
  append_jsonl_line(path, "{\"b\":2}");
  EXPECT_EQ(slurp(path), "{\"a\":1}\n{\"b\":2}\n");
}

}  // namespace
}  // namespace emap::obs
