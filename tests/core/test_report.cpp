#include "emap/core/report.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

RunResult sample_run() {
  EmapPipeline pipeline(testing::small_mdb(2), EmapConfig{});
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

TEST(Report, IterationsCsvHasHeaderAndOneRowPerIteration) {
  testing::TempDir dir("report");
  const auto result = sample_run();
  const auto path = dir.path() / "iterations.csv";
  write_iterations_csv(result, path);
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), result.iterations.size() + 1);
  EXPECT_NE(lines[0].find("anomaly_probability"), std::string::npos);
  // Every data row has the full column count.
  const auto commas = std::count(lines[0].begin(), lines[0].end(), ',');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), ','), commas);
  }
}

TEST(Report, WriteToUnwritablePathThrows) {
  const auto result = sample_run();
  EXPECT_THROW(write_iterations_csv(result, "/nonexistent/dir/out.csv"),
               IoError);
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

}  // namespace
}  // namespace emap::core
