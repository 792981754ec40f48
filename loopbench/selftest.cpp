// Self-tests of the loop benchmark's helpers:
//   loopbench_selftest [WORK_DIR]   (exit 0 = all pass)
// WORK_DIR (default .bench_build/loopbench-work) receives the snapshot
// files of the replay check and is cleaned up afterwards.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/synth/corpus.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace emap;
using namespace loopbench;

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "[ ok ]" : "[FAIL]", what.c_str());
  if (!condition) {
    ++failures;
  }
}

template <typename F>
bool throws(F&& body) {
  try {
    body();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) {
    values.push_back(static_cast<double>(i));
  }
  return values;
}

void percentile_rule() {
  expect(samples_beyond(100, 0.90) == 10, "p90 of 100 has 10 beyond");
  expect(percentile_supported(100, 0.90), "p90 supported at 100 samples");
  expect(!percentile_supported(99, 0.90), "p90 refused at 99 samples");
  expect(throws([] { percentile(one_to(99), 0.90); }),
         "percentile() throws for p90 of 99 samples");
  expect(percentile(one_to(100), 0.90) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(one_to(40), 0.75) == 30.0, "p75 of 1..40 is 30");
  expect(!percentile_supported(999, 0.99) && percentile_supported(1000, 0.99),
         "p99 needs 1000 samples");
  expect(highest_supported_percentile(40) == 0.75,
         "40 samples support at most p75");
  expect(highest_supported_percentile(19) == 0.5,
         "19 samples support only the median");
  expect(percentile(one_to(5), 0.5) == 3.0, "the median needs no tail");
  expect(percentile({}, 0.99) == 0.0, "an empty sample reads 0");
}

void goodput_accounting() {
  Goodput goodput;
  goodput.add({120, 1.0, true});
  goodput.add({120, 1.0, false});
  expect(goodput.windows_per_sec() == 60.0,
         "goodput drops a failed session's windows, keeps its wall time");
  expect(goodput.attempted() == 2 && goodput.failed() == 1,
         "goodput counts attempted and failed sessions");
}

void stream_agreement() {
  const Decision batch{true, 80.0, 20};
  expect(!check_stream_agreement(batch, batch), "equal decisions agree");
  const Decision fewer_calls{true, 80.0, 3};
  const auto reason = check_stream_agreement(fewer_calls, batch);
  expect(reason && reason->find("cloud_calls 3 vs batch 20") !=
                       std::string::npos,
         "a mismatched call count is flagged");
  const Decision late{true, 81.0, 20};
  expect(check_stream_agreement(late, batch).has_value(),
         "a different first alarm is flagged");
}

void replay_reproduces(Workload workload, const std::filesystem::path& work) {
  const std::string name = workload_name(workload);
  const auto dir = work / "selftest";
  std::filesystem::remove_all(dir);
  core::PipelineOptions options = pipeline_options(workload, 7, 0, dir / "e2e");
  core::EmapPipeline pipeline(build_mdb(2), core::EmapConfig{}, options);
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 4242;
  spec.duration_sec = 40.0;
  spec.onset_sec = 24.0;
  const synth::Recording input = synth::make_eval_input(spec);
  core::RunResult e2e = pipeline.run(input);

  expect(!check_batch_session(e2e, 40, session_digest(e2e)),
         name + ": a session passes against its own digest");
  expect(check_batch_session(e2e, 41, session_digest(e2e)).has_value(),
         name + ": a wrong window count fails the session");

  ReplayInputs inputs;
  inputs.cloud = &pipeline.cloud();
  inputs.config = &pipeline.config();
  inputs.input = &input;
  inputs.e2e = &e2e;
  if (workload == Workload::kBatchFaulted) {
    inputs.checkpoint_dir = dir / "replay";
  }
  SpanRecorder spans(true);
  const ReplayOutcome outcome = replay_session(inputs, spans, 0);
  expect(!outcome.mismatch,
         name + ": replay reproduces P_A" +
             (outcome.mismatch ? " (" + *outcome.mismatch + ")" : ""));
  expect(!outcome.searches.empty() && !spans.spans().empty(),
         name + ": replay ran searches and recorded spans");
  if (workload == Workload::kBatchFaulted) {
    expect(outcome.snapshot_bytes.size() == e2e.iterations.size(),
           name + ": one replay snapshot per window");
  }

  const std::uint32_t digest = session_digest(e2e);
  for (auto& record : e2e.iterations) {
    if (record.tracked) {
      record.anomaly_probability += 1e-12;
      break;
    }
  }
  expect(session_digest(e2e) != digest,
         name + ": the digest covers P_A bits");
  SpanRecorder none(false);
  expect(replay_session(inputs, none, 0).mismatch.has_value(),
         name + ": replay flags a P_A that differs from the e2e record");
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path work =
      argc > 1 ? argv[1] : ".bench_build/loopbench-work";
  percentile_rule();
  goodput_accounting();
  stream_agreement();
  replay_reproduces(Workload::kBatchClean, work);
  replay_reproduces(Workload::kBatchFaulted, work);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
