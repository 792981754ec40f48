#include "emap/core/report.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <utility>

#include "emap/common/error.hpp"
#include "emap/obs/dashboard.hpp"
#include "emap/obs/slo.hpp"
#include "emap/obs/trace_context.hpp"
#include "emap/obs/tracecat.hpp"
#include "emap/robust/robust.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

/// A short seizure run; a non-empty `record_path` streams its decision
/// record there.
RunResult sample_run(const std::filesystem::path& record_path = {}) {
  PipelineOptions options;
  options.record_path = record_path;
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{}, options);
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 2;
  spec.duration_sec = 20.0;
  spec.onset_sec = 15.0;
  return pipeline.run(synth::make_eval_input(spec));
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream stream(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(stream, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// Bit-exact double comparison (== would equate -0.0 and 0.0).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream stream(path);
  stream << text;
}

/// Every key of a flat JSON object line, in order, repeats included
/// (parse_flat_json keeps only the last of a repeated key).  A key opens
/// with `{"` or `,"`; inside a string value a quote is escaped, so a value
/// cannot fake one.
std::vector<std::string> json_keys(const std::string& line) {
  static const std::regex key(R"re([{,]"((?:[^"\\]|\\.)*)":)re");
  std::vector<std::string> keys;
  for (auto it = std::sregex_iterator(line.begin(), line.end(), key);
       it != std::sregex_iterator(); ++it) {
    keys.push_back((*it)[1]);
  }
  return keys;
}

/// The SloSummary fields, as the run summary suffixes them.
constexpr const char* kSloFields[] = {
    "budget_sec",      "target",          "observations",
    "deadline_misses", "near_misses",     "miss_rate",
    "burn_rate",       "max_latency_sec", "p50_latency_sec",
    "p99_latency_sec"};

TEST(Report, IterationsJsonlHasOneObjectPerIteration) {
  testing::TempDir dir("report");
  const auto path = dir.path() / "record.jsonl";
  const auto result = sample_run(path);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), result.iterations.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(obs::parse_flat_json(lines[i], fields)) << lines[i];
    EXPECT_EQ(fields.size(), 25u);
    EXPECT_EQ(fields["window"], std::to_string(i));
  }
}

TEST(Report, RecordJsonlRoundTripsEveryFieldBitExact) {
  RunResult result = sample_run();
  // Values a 6-significant-digit writer would lose.
  IterationRecord edge;
  edge.window_index = result.iterations.size();
  edge.t_sec = 1.0 / 3.0;
  edge.anomaly_probability = 0.1 + 0.2;
  edge.track_device_sec = 5e-324;
  edge.abs_ops = (std::uint64_t{1} << 53) - 1;
  edge.loaded_sequence = 123456789;
  edge.set_loaded = true;
  edge.anomaly_predicted = true;
  edge.no_call_reason = NoCallReason::kStopping;
  edge.robust_state = robust::DegradeState::kRecovering;
  edge.quality = robust::QualityVerdict::kNan;
  edge.breaker_state = robust::BreakerState::kHalfOpen;
  result.iterations.push_back(edge);
  ASSERT_EQ(result.iterations.front().pa_on_load, -1.0);

  testing::TempDir dir("report_roundtrip");
  const auto path = dir.path() / "record.jsonl";
  write_text(path, iterations_jsonl(result));
  const obs::SeriesLoadResult loaded = obs::load_record_jsonl(path);
  EXPECT_EQ(loaded.skipped_lines, 0u);
  std::map<std::string, const obs::LoadedSeries*> column;
  for (const obs::LoadedSeries& series : loaded.series) {
    ASSERT_EQ(series.buckets.size(), result.iterations.size()) << series.key;
    column[series.key] = &series;
  }
  // 25 fields - t_sec - trace_id - 4 string columns.
  ASSERT_EQ(column.size(), 19u);
  const auto lines = read_lines(path);
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationRecord& r = result.iterations[i];
    const std::pair<const char*, double> expected[] = {
        {"window", static_cast<double>(r.window_index)},
        {"tracked", r.tracked ? 1.0 : 0.0},
        {"set_loaded", r.set_loaded ? 1.0 : 0.0},
        {"loaded_sequence", static_cast<double>(r.loaded_sequence)},
        {"pa_on_load", r.pa_on_load},
        {"anomaly_probability", r.anomaly_probability},
        {"anomaly_predicted", r.anomaly_predicted ? 1.0 : 0.0},
        {"tracked_before", static_cast<double>(r.tracked_before)},
        {"tracked_after", static_cast<double>(r.tracked_after)},
        {"removed_dissimilar", static_cast<double>(r.removed_dissimilar)},
        {"removed_exhausted", static_cast<double>(r.removed_exhausted)},
        {"abs_ops", static_cast<double>(r.abs_ops)},
        {"track_device_sec", r.track_device_sec},
        {"cloud_call_issued", r.cloud_call_issued ? 1.0 : 0.0},
        {"degraded", r.degraded ? 1.0 : 0.0},
        {"shed_cap", static_cast<double>(r.shed_cap)},
        {"breaker_rejected", r.breaker_rejected ? 1.0 : 0.0},
        {"robust_critical", r.robust_critical ? 1.0 : 0.0},
        {"robust_recovered", r.recovered ? 1.0 : 0.0},
    };
    for (const auto& [key, value] : expected) {
      ASSERT_EQ(column.count(key), 1u) << key;
      const obs::SeriesBucket& bucket = column[key]->buckets[i];
      EXPECT_TRUE(same_bits(bucket.last, value))
          << key << " window " << i << ": " << bucket.last << " vs " << value;
      EXPECT_TRUE(same_bits(bucket.t_start_sec, r.t_sec)) << i;
    }
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(obs::parse_flat_json(lines[i], fields));
    EXPECT_EQ(fields["no_call_reason"], no_call_reason_name(r.no_call_reason));
    EXPECT_EQ(fields["robust_state"],
              robust::degrade_state_name(r.robust_state));
    EXPECT_EQ(fields["quality"], robust::quality_verdict_name(r.quality));
    EXPECT_EQ(fields["breaker_state"],
              robust::breaker_state_name(r.breaker_state));
    EXPECT_EQ(fields["trace_id"],
              obs::trace_id_hex(
                  obs::mint_trace_id(obs::kDefaultTraceSeed, r.window_index)));
  }
}

TEST(Report, AlertTransitionsWriteAsRecordFields) {
  IterationRecord window;
  window.window_index = 5;
  window.t_sec = 6.0;
  obs::AlertTransition fired;
  fired.rule = "edge_iteration_burn";
  fired.firing = true;
  fired.value = 9.0;
  fired.threshold = 1.0;
  obs::AlertTransition resolved = fired;
  resolved.rule = "track_latency_step";
  resolved.firing = false;
  resolved.value = 0.5;
  resolved.threshold = 0.125;
  window.alerts = {fired, resolved};
  const std::string line = iteration_json(window);
  EXPECT_NE(line.find("\"alert_edge_iteration_burn\":\"firing\","
                      "\"alert_edge_iteration_burn_value\":9,"
                      "\"alert_edge_iteration_burn_threshold\":1"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"alert_track_latency_step\":\"resolved\","
                      "\"alert_track_latency_step_value\":0.5,"
                      "\"alert_track_latency_step_threshold\":0.125"),
            std::string::npos)
      << line;
  // The window's trace id is hex text, as spans write it: window ids are
  // above 2^53, where a JSON reader parsing numbers as doubles rounds.
  const std::uint64_t trace = obs::mint_trace_id(obs::kDefaultTraceSeed, 5);
  EXPECT_NE(line.find("\"trace_id\":\"" + obs::trace_id_hex(trace) + "\""),
            std::string::npos);

  // Read back: the transitions, at the window's t_sec, and no series.
  testing::TempDir dir("report_alerts");
  const auto path = dir.path() / "record.jsonl";
  write_text(path, line + "\n");
  const obs::SeriesLoadResult loaded = obs::load_record_jsonl(path);
  EXPECT_EQ(loaded.skipped_lines, 0u);
  ASSERT_EQ(loaded.alerts.size(), 2u);
  EXPECT_EQ(loaded.alerts[0].rule, "edge_iteration_burn");
  EXPECT_TRUE(loaded.alerts[0].firing);
  EXPECT_EQ(loaded.alerts[0].t_sec, 6.0);
  EXPECT_EQ(loaded.alerts[0].value, 9.0);
  EXPECT_EQ(loaded.alerts[0].threshold, 1.0);
  EXPECT_EQ(loaded.alerts[1].rule, "track_latency_step");
  EXPECT_FALSE(loaded.alerts[1].firing);
  EXPECT_EQ(loaded.alerts[1].threshold, 0.125);
  for (const obs::LoadedSeries& series : loaded.series) {
    EXPECT_EQ(series.key.rfind("alert_", 0), std::string::npos)
        << series.key;
    EXPECT_NE(series.key, "trace_id");
  }
}

TEST(Report, WriteToUnwritablePathThrows) {
  EXPECT_THROW(sample_run("/nonexistent/dir/out.jsonl"), IoError);
  // A directory where the file should go.
  testing::TempDir dir("report_dir");
  EXPECT_THROW(sample_run(dir.path()), IoError);
}

TEST(Report, JsonSummaryContainsAllKeys) {
  const auto result = sample_run();
  const auto json = run_summary_json(result);
  for (const char* key :
       {"windows", "cloud_calls", "anomaly_predicted", "first_alarm_sec",
        "delta_ec_sec", "delta_cs_sec", "delta_ce_sec", "delta_initial_sec",
        "mean_track_sec", "max_track_sec"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Report, RunSummaryCarriesEveryRobustAndSloField) {
  // The one run summary: every key robust_summary_json writes (a streamed
  // stage row included) and every field the per-SLO report wrote, each
  // exactly once, with the robust section written by the same code.
  RunResult result = sample_run();
  ASSERT_EQ(result.slo.size(), 2u);
  robust::StageQueueSummary stage;
  stage.stage = "q_raw";
  stage.processed = 20;
  stage.queue = "raw";
  stage.queue_capacity = 8;
  result.robust.stages.push_back(stage);
  const std::string summary = run_summary_json(result);
  const std::vector<std::string> keys = json_keys(summary);
  std::map<std::string, std::size_t> count;
  for (const std::string& key : keys) {
    ++count[key];
  }
  EXPECT_EQ(count.size(), keys.size()) << "duplicate key in " << summary;

  const std::string robust = robust::robust_summary_json(result.robust);
  const std::vector<std::string> robust_keys = json_keys(robust);
  ASSERT_GT(robust_keys.size(), 30u);
  for (const std::string& key : robust_keys) {
    EXPECT_EQ(count[key], 1u) << key;
  }
  EXPECT_EQ(count["stage_q_raw_queue_capacity"], 1u);
  EXPECT_NE(summary.find(robust.substr(1, robust.size() - 2)),
            std::string::npos);

  for (const char* key : {"git_sha", "build_type", "compiler"}) {
    EXPECT_EQ(count[key], 1u) << key;
  }
  for (const obs::SloSummary& slo : result.slo) {
    for (const char* field : kSloFields) {
      EXPECT_EQ(count["slo_" + slo.name + "_" + field], 1u)
          << slo.name << " " << field;
    }
  }
}

TEST(SloReport, RunSummaryCarriesBuildStampAndEachSlo) {
  obs::SloMonitor a(obs::edge_iteration_slo());
  obs::SloMonitor b(obs::initial_response_slo());
  a.observe(0.5);
  b.observe(2.0);
  RunResult result;
  result.slo = {a.summary(), b.summary()};
  const std::string json = run_summary_json(result);
  EXPECT_NE(json.find("\"git_sha\":"), std::string::npos);
  EXPECT_NE(json.find("\"compiler\":"), std::string::npos);
  EXPECT_NE(json.find("\"slo_edge_iteration_observations\":1,"),
            std::string::npos);
  EXPECT_NE(json.find("\"slo_initial_response_observations\":1,"),
            std::string::npos);
  EXPECT_NE(json.find("\"slo_edge_iteration_deadline_misses\":0,"),
            std::string::npos);
}

TEST(SloReport, RunSummaryWritesEverySloFieldInColumnOrder) {
  obs::SloSpec spec;
  spec.name = "test";
  spec.budget_sec = 1.0;
  spec.target = 0.9;
  obs::SloMonitor monitor(spec);
  monitor.observe(1.5);
  RunResult result;
  result.slo = {monitor.summary()};
  const std::string json = run_summary_json(result);
  std::vector<std::string> slo_keys;
  for (const std::string& key : json_keys(json)) {
    if (key.rfind("slo_test_", 0) == 0) {
      slo_keys.push_back(key.substr(std::strlen("slo_test_")));
    }
  }
  EXPECT_EQ(slo_keys,
            std::vector<std::string>(std::begin(kSloFields),
                                     std::end(kSloFields)));
  EXPECT_NE(json.find("\"slo_test_budget_sec\":1,\"slo_test_target\":0.9"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"slo_test_observations\":1,"
                      "\"slo_test_deadline_misses\":1,"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace emap::core
