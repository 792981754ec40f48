// End-to-end telemetry: the span log and the exporters must agree with
// the pipeline's own RunTimings, and the Chrome trace rendered from the
// written span log must equal the one rendered from the live tracer.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "emap/core/pipeline.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/tracecat.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

synth::Recording seizure_input(std::uint64_t seed, double duration = 30.0,
                               double onset = 25.0) {
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = seed;
  spec.duration_sec = duration;
  spec.onset_sec = onset;
  return synth::make_eval_input(spec);
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(Telemetry, FirstCloudCallSpansMatchRunTimings) {
  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  const auto result = pipeline.run(seizure_input(11, 20.0, 15.0));
  ASSERT_NE(result.tracer, nullptr);
  ASSERT_GE(result.cloud_calls, 1u);

  // RunTimings records the first delivered round trip; calls are issued
  // one at a time, so that is the first "cloud-call" span in the log.
  // Its Eq. 4 legs nest under it as upload / cloud-search / download.
  const auto spans = result.tracer->spans();
  const obs::SpanRecord* call = nullptr;
  for (const auto& span : spans) {
    if (span.category == "cloud-call") {
      call = &span;
      break;
    }
  }
  ASSERT_NE(call, nullptr);
  double ec = -1.0;
  double cs = -1.0;
  double ce = -1.0;
  for (const auto& span : spans) {
    if (span.parent != call->id) {
      continue;
    }
    if (span.category == "upload") {
      ec = span.sim_dur_sec;
    } else if (span.category == "cloud-search") {
      cs = span.sim_dur_sec;
    } else if (span.category == "download") {
      ce = span.sim_dur_sec;
    }
  }

  const auto& timings = result.timings;
  ASSERT_GT(timings.delta_initial_sec, 0.0);
  EXPECT_NEAR(ec, timings.delta_ec_sec, 1e-9);
  EXPECT_NEAR(cs, timings.delta_cs_sec, 1e-9);
  EXPECT_NEAR(ce, timings.delta_ce_sec, 1e-9);
  EXPECT_NEAR(ec + cs + ce, timings.delta_initial_sec, 1e-9);
  // The parent span covers the whole round trip.
  EXPECT_NEAR(call->sim_dur_sec, timings.delta_initial_sec, 1e-9);

  // One issued call per span; the Eq. 4 histograms saw every one, the
  // first being the RunTimings round trip.
  std::size_t issued = 0;
  for (const auto& record : result.iterations) {
    issued += record.cloud_call_issued ? 1 : 0;
  }
  EXPECT_EQ(registry.counter("emap_pipeline_cloud_calls_total").value(),
            issued);
  EXPECT_EQ(registry.histogram("emap_delta_initial_seconds").count(), issued);
}

TEST(Telemetry, ChromeTraceExportCoversTheRun) {
  testing::TempDir dir("telemetry_trace");
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{});
  const auto result = pipeline.run(seizure_input(14, 20.0, 15.0), 4.0);
  ASSERT_NE(result.tracer, nullptr);
  obs::write_chrome_trace(dir.path() / "trace.json", result.tracer->spans());
  const std::string json = obs::to_chrome_trace(result.tracer->spans());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  for (const char* name : {"delta_EC", "delta_CS", "delta_CE", "sample",
                           "filter", "edge-track", "prediction"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
}

TEST(ChromeTrace, SpanLogViewMatchesLiveExport) {
  // The span JSONL is the one span log a run writes; `emapctl trace
  // --chrome` renders the Chrome trace from it.  Under faults (retry and
  // backoff spans, fractional SimTime stamps) that view must be the live
  // export byte for byte: %.17g round-trips every double.
  testing::TempDir dir("telemetry_span_view");
  PipelineOptions options;
  options.fault.up.drop = options.fault.down.drop = 0.25;
  options.retry.max_attempts = 3;
  options.retry.deadline_sec = 6.0;
  EmapPipeline pipeline(testing::small_mdb(4), EmapConfig{}, options);
  const auto result = pipeline.run(seizure_input(16, 20.0, 15.0));
  ASSERT_NE(result.tracer, nullptr);
  ASSERT_GT(result.retry_attempts, 0u)
      << "fault schedule produced no retries; raise the drop rate";

  const auto path = dir.path() / "spans.jsonl";
  obs::write_spans_jsonl(path, *result.tracer);
  const obs::SpanLoadResult loaded = obs::load_spans_jsonl(path);
  EXPECT_EQ(loaded.skipped_lines, 0u);
  ASSERT_EQ(loaded.spans.size(), result.tracer->size());
  EXPECT_EQ(obs::to_chrome_trace(loaded.spans),
            obs::to_chrome_trace(result.tracer->spans()));
}

TEST(Telemetry, PrometheusExportCoversEveryInstrumentedLayer) {
  obs::MetricsRegistry registry;
  PipelineOptions options;
  options.metrics = &registry;
  EmapPipeline pipeline(testing::small_mdb(6), EmapConfig{}, options);
  (void)pipeline.run(seizure_input(15, 20.0, 15.0));

  EXPECT_GE(registry.family_count(), 12u);
  const std::string text = obs::to_prometheus(registry);
  EXPECT_GE(count_occurrences(text, "# TYPE "), 12u);
  for (const char* family :
       {"emap_pipeline_windows_total", "emap_pipeline_cloud_calls_total",
        "emap_delta_ec_seconds", "emap_delta_cs_seconds",
        "emap_delta_ce_seconds", "emap_delta_initial_seconds",
        "emap_track_step_seconds", "emap_search_requests_total",
        "emap_search_skip_ratio", "emap_tracker_steps_total",
        "emap_net_bytes_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family), std::string::npos)
        << family;
  }
  // The skip-ratio histogram actually observed the exponential search's
  // behaviour (Algorithm 1 skips most offsets).
  EXPECT_GT(registry.histogram("emap_search_skip_ratio",
                               {},
                               obs::Histogram::linear_bounds(0.0, 1.0, 50))
                .count(),
            0u);
}

}  // namespace
}  // namespace emap::core
