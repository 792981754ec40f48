#include "emap/obs/tracecat.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/span.hpp"
#include "emap/obs/trace_context.hpp"
#include "support/test_util.hpp"

namespace emap::obs {
namespace {

TEST(ParseFlatJson, ParsesStringsNumbersAndBareTokens) {
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(parse_flat_json(
      R"({"name":"window_3","dur":0.25,"ok":true,"none":null})", fields));
  EXPECT_EQ(fields.at("name"), "window_3");
  EXPECT_EQ(fields.at("dur"), "0.25");
  EXPECT_EQ(fields.at("ok"), "true");
  EXPECT_EQ(fields.at("none"), "null");
}

TEST(ParseFlatJson, UnescapesStringValues) {
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(parse_flat_json(R"({"a":"x\"y\\z\n","b":"A"})", fields));
  EXPECT_EQ(fields.at("a"), "x\"y\\z\n");
  EXPECT_EQ(fields.at("b"), "A");
}

TEST(ParseFlatJson, RejectsMalformedAndNestedInput) {
  std::map<std::string, std::string> fields;
  EXPECT_FALSE(parse_flat_json("", fields));
  EXPECT_FALSE(parse_flat_json("not json", fields));
  EXPECT_FALSE(parse_flat_json(R"({"a":1)", fields));          // truncated
  EXPECT_FALSE(parse_flat_json(R"({"a":{"b":1}})", fields));   // nested
  EXPECT_FALSE(parse_flat_json(R"({"a":[1,2]})", fields));     // array
  EXPECT_FALSE(parse_flat_json(R"({"a":1} trailing)", fields));
  EXPECT_FALSE(parse_flat_json(R"({"a":"unterminated)", fields));
  EXPECT_TRUE(parse_flat_json("{}", fields));
  EXPECT_TRUE(fields.empty());
}

TEST(LoadSpansJsonl, ThrowsOnMissingFileSkipsBadLines) {
  testing::TempDir dir("tracecat_spans");
  EXPECT_THROW(load_spans_jsonl(dir.path() / "absent.jsonl"), IoError);

  const auto path = dir.path() / "spans.jsonl";
  {
    std::ofstream out(path);
    Tracer tracer;
    const auto root =
        tracer.record_sim("window_0", "window", 0.0, 1.0, 0, 0x77);
    tracer.record_sim("delta_EC", "upload", 0.0, 0.25, root, 0x77);
    for (const auto& span : tracer.spans()) {
      out << span_json(span) << "\n";
    }
    out << "garbage line\n";
    out << "{\"no_span_id\":1}\n";
    out << "{\"span_id\":9,\"name\":\"unstamped\"}\n";
  }
  const auto result = load_spans_jsonl(path);
  ASSERT_EQ(result.spans.size(), 3u);
  EXPECT_EQ(result.skipped_lines, 2u);
  EXPECT_EQ(result.spans[0].name, "window_0");
  EXPECT_EQ(result.spans[0].trace_id, 0x77u);
  EXPECT_EQ(result.spans[1].category, "upload");
  EXPECT_EQ(result.spans[1].parent, result.spans[0].id);
  EXPECT_DOUBLE_EQ(result.spans[1].sim_dur_sec, 0.25);
  // A line without a virtual-clock stamp loads at -1, not at t = 0.
  EXPECT_EQ(result.spans[2].id, 9u);
  EXPECT_EQ(result.spans[2].sim_start_sec, -1.0);
}

SpanRecord make_span(std::uint64_t id, std::uint64_t parent,
                     std::uint64_t trace, const std::string& name,
                     const std::string& category, double start, double dur) {
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.trace_id = trace;
  span.name = name;
  span.category = category;
  span.sim_start_sec = start;
  span.sim_dur_sec = dur;
  return span;
}

std::vector<SpanRecord> one_window_trace(std::uint64_t trace) {
  return {
      make_span(1, 0, trace, "window_4", "window", 4.0, 1.0),
      make_span(2, 1, trace, "delta_EC", "upload", 4.0, 0.30),
      make_span(3, 1, trace, "delta_CS", "cloud-search", 4.30, 1.25),
      make_span(4, 1, trace, "delta_CE", "download", 5.55, 0.20),
      make_span(5, 1, trace, "track", "edge-track", 5.75, 0.40),
      make_span(6, 1, trace, "predict", "prediction", 6.15, 0.01),
      make_span(7, 1, trace, "timeout", "retry", 4.0, 0.50),
  };
}

TEST(BuildCriticalPaths, DecomposesTheEqFourLegs) {
  const auto paths = build_critical_paths(one_window_trace(0xaa));
  ASSERT_EQ(paths.size(), 1u);
  const auto& path = paths[0];
  EXPECT_EQ(path.trace_id, 0xaau);
  EXPECT_EQ(path.window_index, 4);
  EXPECT_DOUBLE_EQ(path.window_start_sec, 4.0);
  EXPECT_DOUBLE_EQ(path.uplink_sec, 0.30);
  EXPECT_DOUBLE_EQ(path.scan_sec, 1.25);
  EXPECT_DOUBLE_EQ(path.downlink_sec, 0.20);
  EXPECT_NEAR(path.edge_sec, 0.41, 1e-12);
  EXPECT_DOUBLE_EQ(path.retry_sec, 0.50);
  EXPECT_DOUBLE_EQ(path.initial_response_sec(),
                   path.uplink_sec + path.scan_sec + path.downlink_sec);
  EXPECT_TRUE(path.has_edge);
  EXPECT_TRUE(path.has_cloud);
  EXPECT_TRUE(path.complete());
  EXPECT_EQ(path.spans, 7u);
}

TEST(BuildCriticalPaths, IgnoresUntracedSpansAndOrdersByWindow) {
  std::vector<SpanRecord> spans;
  spans.push_back(make_span(1, 0, 0, "untraced", "upload", 0.0, 9.0));
  spans.push_back(make_span(2, 0, 0xb, "window_7", "window", 7.0, 1.0));
  spans.push_back(make_span(3, 0, 0xc, "window_2", "window", 2.0, 1.0));
  spans.push_back(make_span(4, 0, 0xd, "orphan", "upload", 0.0, 0.1));
  const auto paths = build_critical_paths(spans);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0].window_index, 2);
  EXPECT_EQ(paths[1].window_index, 7);
  // The trace with no window root sorts last with an unknown index.
  EXPECT_EQ(paths[2].window_index, -1);
  EXPECT_FALSE(paths[2].complete());
}

TEST(CriticalPathTable, RendersRowsTotalsAndCompleteness) {
  const auto paths = build_critical_paths(one_window_trace(0xaa));
  const std::string table = critical_path_table(paths);
  EXPECT_NE(table.find("window"), std::string::npos);
  EXPECT_NE(table.find("00000000000000aa"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  EXPECT_NE(table.find("1 traces (1 complete edge+cloud)"),
            std::string::npos);
}

TEST(CriticalPathJsonl, RoundTripsThroughTheFlatParser) {
  const auto paths = build_critical_paths(one_window_trace(0xaa));
  const std::string jsonl = critical_path_jsonl(paths);
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(
      parse_flat_json(jsonl.substr(0, jsonl.find('\n')), fields));
  EXPECT_EQ(fields.at("trace_id"), "00000000000000aa");
  EXPECT_EQ(fields.at("window"), "4");
  EXPECT_EQ(fields.at("complete"), "true");
  EXPECT_DOUBLE_EQ(std::stod(fields.at("uplink_sec")), 0.30);
}

}  // namespace
}  // namespace emap::obs
