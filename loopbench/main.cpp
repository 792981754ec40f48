// Wall-clock benchmark of the EMAP monitoring loop (README.md).
//
//   loopbench --workload batch-clean|batch-faulted --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// One client monitors 16 seeded 120-s sessions back to back through
// EmapPipeline::run.  --trace 0 times ceil(4*S/16) rounds of those runs
// and prints the end-to-end metrics; --trace 1 replays the same sessions
// through the layers' public calls with a span per call and prints the
// per-layer metrics.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "check.hpp"
#include "emap/common/build_info.hpp"
#include "emap/core/stream.hpp"
#include "emap/robust/checkpoint.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace emap;
using namespace loopbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  return getrusage(RUSAGE_SELF, &usage) == 0
             ? static_cast<double>(usage.ru_maxrss) / 1024.0
             : 0.0;
}

struct Args {
  Workload workload = Workload::kBatchClean;
  std::uint64_t seed = 1;
  std::size_t seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir = ".bench_build/loopbench-work";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto parsed = parse_workload(value);
      if (!parsed) {
        throw std::invalid_argument("unknown workload " + value);
      }
      args.workload = *parsed;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoul(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || args.seconds == 0) {
    throw std::invalid_argument(
        "usage: loopbench --workload batch-clean|batch-faulted --seed N "
        "--seconds S --trace 0|1 [--work-dir DIR]");
  }
  return args;
}

/// Metrics printed in the final JSON line, in order.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The e2e run's snapshot facts the traced run checks against.
struct SnapshotFacts {
  std::uintmax_t bytes = 0;
  /// Controller bookkeeping the replay does not rebuild (SLO and breaker
  /// rings); the replay snapshot may be smaller by at most this much.
  std::size_t bookkeeping_bytes = 0;
  bool pending_succeeded = true;
};

SnapshotFacts read_snapshot_facts(const std::filesystem::path& dir) {
  SnapshotFacts facts;
  facts.bytes = std::filesystem::file_size(robust::checkpoint_path(dir));
  const auto state = robust::read_checkpoint(dir);
  if (state) {
    facts.bookkeeping_bytes = state->edge_slo.recent_miss.size() +
                              state->initial_slo.recent_miss.size() +
                              state->breaker.recent_failure.size();
    facts.pending_succeeded = !state->pending || state->pending->succeeded;
  }
  return facts;
}

/// Per-layer percentile: the rule's percentile when the sample supports
/// it, else the highest it supports (noted on stderr) — per-layer numbers
/// have no bound, and a layer doing less work must not abort the run.
double layer_percentile(const std::vector<double>& values, double q,
                        const char* name) {
  if (values.empty() || percentile_supported(values.size(), q)) {
    return percentile(values, q);
  }
  const double fallback = highest_supported_percentile(values.size());
  std::fprintf(stderr, "[loopbench] %s: %zu samples do not support p%g; "
               "reporting p%g\n", name, values.size(), q * 100.0,
               fallback * 100.0);
  return percentile(values, fallback);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-32s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-32s %20.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Everything a run generates before anything is timed.
struct Inputs {
  std::filesystem::path mdb_path;
  std::uintmax_t mdb_bytes = 0;
  std::vector<synth::Recording> sessions;
  std::size_t windows_per_session = 0;
};

Inputs generate_inputs(const Args& args, const std::filesystem::path& dir) {
  Inputs inputs;
  inputs.mdb_path = dir / "mdb.bin";
  build_mdb().save(inputs.mdb_path);
  inputs.mdb_bytes = std::filesystem::file_size(inputs.mdb_path);
  for (std::size_t i = 0; i < kSessionsPerRun; ++i) {
    inputs.sessions.push_back(make_session(args.seed, i));
  }
  inputs.windows_per_session = inputs.sessions.front().samples.size() /
                               core::EmapConfig{}.window_length;
  return inputs;
}

/// setup_s: MdbStore::load of the MDB file plus pipeline construction.
struct Setup {
  std::vector<double> setup_sec;
  std::vector<double> load_sec;
};

Setup measure_setup(const Inputs& inputs,
                    const core::PipelineOptions& options) {
  constexpr int kRepeats = 7;
  Setup setup;
  for (int i = 0; i < kRepeats; ++i) {
    const auto start = Clock::now();
    mdb::MdbStore store = mdb::MdbStore::load(inputs.mdb_path);
    setup.load_sec.push_back(seconds_since(start));
    const core::EmapPipeline pipeline(std::move(store), core::EmapConfig{},
                                      options);
    setup.setup_sec.push_back(seconds_since(start));
  }
  return setup;
}

/// Failed-session accounting: one reason line per failure.
class Failures {
 public:
  explicit Failures(std::uint64_t seed) : seed_(seed) {}
  void report(std::size_t session, const std::string& reason) {
    ++count_;
    std::printf("FAILED session %zu (seed %llu): %s\n", session,
                static_cast<unsigned long long>(derive_seed(seed_, 1, session)),
                reason.c_str());
  }
  std::size_t count() const { return count_; }

 private:
  std::uint64_t seed_;
  std::size_t count_ = 0;
};

/// What a timed or traced run reports.
struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  /// Untimed warm-up reference runs, counted as input generation.
  double warmup_sec = 0.0;
};

/// --trace 0: warm-up references, then timed rounds over the sessions.
Outcome run_timed(const Args& args, const Inputs& inputs, const Setup& setup,
                  const mdb::MdbStore& store,
                  const std::filesystem::path& scratch, Failures& failures) {
  const std::vector<synth::Recording>& sessions = inputs.sessions;
  const std::size_t rounds = timed_rounds(args.seconds);
  // Each session run gets its own pipeline (its own fault seed), built
  // before the clock starts.
  auto make_pipeline = [&](std::size_t i) {
    return std::make_unique<core::EmapPipeline>(
        store, core::EmapConfig{},
        pipeline_options(args.workload, args.seed, i, scratch / "ckpt"));
  };

  const auto warmup_start = Clock::now();
  std::vector<std::uint32_t> reference_digests;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    reference_digests.push_back(
        session_digest(make_pipeline(i)->run(sessions[i])));
  }
  const double warmup_sec = seconds_since(warmup_start);

  // One closed-loop client, sessions back to back, in rounds.  Each
  // session's wall time is its fastest round: other tenants' CPU steal on
  // a shared host only ever adds time, and it comes in bursts of seconds
  // that another round misses.
  std::vector<double> best_wall(sessions.size(), 0.0);
  std::vector<bool> passed(sessions.size(), true);
  std::vector<std::size_t> windows(sessions.size(), 0);
  std::vector<double> initial_sec;
  std::vector<double> edge_iter_sec;
  std::size_t attempted = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      auto pipeline = make_pipeline(i);
      const auto start = Clock::now();
      const core::RunResult result = pipeline->run(sessions[i]);
      const double wall = seconds_since(start);
      ++attempted;
      const auto problem = check_batch_session(
          result, inputs.windows_per_session, reference_digests[i]);
      if (problem) {
        failures.report(i, *problem);
        passed[i] = false;
      }
      if (round == 0 || wall < best_wall[i]) {
        best_wall[i] = wall;
      }
      if (round == 0) {
        windows[i] = result.iterations.size();
        initial_sec.push_back(result.timings.delta_initial_sec);
        for (const auto& record : result.iterations) {
          if (record.tracked) {
            edge_iter_sec.push_back(record.track_device_sec);
          }
        }
      }
    }
  }
  Goodput goodput;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    goodput.add({windows[i], best_wall[i], passed[i]});
  }
  return {{
              {"setup_s", median(setup.setup_sec), "s"},
              {"goodput_wps", goodput.windows_per_sec(), "windows/s"},
              {"session_p50_s", median(best_wall), "s"},
              {"model_initial_p50_s", median(initial_sec), "s"},
              {"model_edge_iter_p99_s", percentile(edge_iter_sec, 0.99),
               "s"},
              {"peak_rss_mb", peak_rss_mb(), "MiB"},
          },
          attempted,
          warmup_sec};
}

/// What the traced run gathers about the staged scheduler.
struct StreamTally {
  double windows = 0.0;
  double wall_sec = 0.0;
  double calls = 0.0;
  double empty_windows = 0.0;
  double queue_max_depth = 0.0;
  double restarts = 0.0;
  double agreeing = 0.0;
};

/// --trace 1: each session's reference run, its replay through the layer
/// calls, and a repeat run for the e2e wall time; then the staged
/// scheduler on the same sessions.
Outcome run_traced(const Args& args, const Inputs& inputs,
                   const Setup& setup, const mdb::MdbStore& store,
                   const std::filesystem::path& scratch, Failures& failures) {
  const std::vector<synth::Recording>& sessions = inputs.sessions;
  const bool faulted = args.workload == Workload::kBatchFaulted;
  const std::filesystem::path e2e_ckpt = scratch / "ckpt-e2e";
  const std::filesystem::path replay_ckpt = scratch / "ckpt-replay";
  SpanRecorder spans(true);
  SpanRecorder no_spans(false);
  // Trace overhead: the first sessions are replayed with and without
  // spans, alternating which goes first.
  constexpr std::size_t kOverheadSessions = 8;
  double overhead_on_sec = 0.0;
  double overhead_off_sec = 0.0;
  std::vector<core::RunResult> references;
  double warmup_sec = 0.0;
  std::vector<double> e2e_wall;
  std::vector<ReplayOutcome> outcomes;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    core::EmapPipeline pipeline(
        store, core::EmapConfig{},
        pipeline_options(args.workload, args.seed, i, e2e_ckpt));
    const auto warmup_start = Clock::now();
    references.push_back(pipeline.run(sessions[i]));
    warmup_sec += seconds_since(warmup_start);

    ReplayInputs replay;
    replay.cloud = &pipeline.cloud();
    replay.config = &pipeline.config();
    replay.input = &sessions[i];
    replay.e2e = &references.back();
    SnapshotFacts e2e_snapshot;
    if (faulted) {
      e2e_snapshot = read_snapshot_facts(e2e_ckpt);
      replay.checkpoint_dir = replay_ckpt;
      replay.unresolved_call_succeeded = e2e_snapshot.pending_succeeded;
    }
    const auto id = static_cast<std::uint32_t>(i);
    const bool measure_overhead = i < kOverheadSessions;
    auto replay_without_spans = [&] {
      const auto off_start = Clock::now();
      replay_session(replay, no_spans, id);
      overhead_off_sec += seconds_since(off_start);
    };
    if (measure_overhead && i % 2 == 1) {
      replay_without_spans();
    }
    const auto on_start = Clock::now();
    outcomes.push_back(replay_session(replay, spans, id));
    if (measure_overhead) {
      overhead_on_sec += seconds_since(on_start);
    }
    if (measure_overhead && i % 2 == 0) {
      replay_without_spans();
    }

    // The e2e wall time the shares divide by comes from a second run of
    // the session after its replay, so that neither side pays for being
    // first on a cold cache.  It must repeat the reference's output.
    const auto e2e_start = Clock::now();
    const core::RunResult again = pipeline.run(sessions[i]);
    e2e_wall.push_back(seconds_since(e2e_start));

    const ReplayOutcome& outcome = outcomes.back();
    if (const auto problem = check_batch_session(
            again, inputs.windows_per_session,
            session_digest(references.back()))) {
      failures.report(i, "repeat run: " + *problem);
    } else if (outcome.mismatch) {
      failures.report(i, "replay diverged at " + *outcome.mismatch);
    } else if (faulted) {
      const std::uintmax_t replayed =
          outcome.snapshot_bytes.empty() ? 0 : outcome.snapshot_bytes.back();
      if (replayed > e2e_snapshot.bytes ||
          e2e_snapshot.bytes - replayed > e2e_snapshot.bookkeeping_bytes) {
        failures.report(
            i, "replay snapshot " + std::to_string(replayed) +
                   " B vs e2e " + std::to_string(e2e_snapshot.bytes) +
                   " B (bookkeeping " +
                   std::to_string(e2e_snapshot.bookkeeping_bytes) + " B)");
      }
    }
  }

  // The staged scheduler on the same sessions and link (no
  // checkpointing), against the batch references.
  StreamTally stream;
  core::StreamOptions stream_options;
  stream_options.mode = core::SchedulerMode::kThreaded;
  stream_options.stage_threads = 2;
  stream_options.queue_capacity = 8;
  stream_options.policy = core::QueueFullPolicy::kBlock;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    core::EmapPipeline engine(
        store, core::EmapConfig{},
        pipeline_options(args.workload, args.seed, i, {}));
    core::StreamPipeline scheduler(engine, stream_options);
    const auto start = Clock::now();
    const core::RunResult result = scheduler.run(sessions[i]);
    stream.wall_sec += seconds_since(start);
    stream.windows += static_cast<double>(result.iterations.size());
    stream.calls += static_cast<double>(result.cloud_calls);
    for (const auto& record : result.iterations) {
      stream.empty_windows += record.tracked_before == 0 ? 1.0 : 0.0;
    }
    for (const auto& stage : result.robust.stages) {
      stream.queue_max_depth = std::max(
          stream.queue_max_depth, static_cast<double>(stage.queue_max_depth));
    }
    stream.restarts += static_cast<double>(result.robust.supervisor_restarts);
    const auto disagreement = check_stream_agreement(
        decision_of(result), decision_of(references[i]));
    if (disagreement) {
      std::printf("stream session %zu disagrees with batch: %s\n", i,
                  disagreement->c_str());
    } else {
      stream.agreeing += 1.0;
    }
  }

  // ---- Per-layer numbers. ----
  std::vector<std::vector<double>> us(kLayerCount);
  for (const Span& span : spans.spans()) {
    us[static_cast<std::size_t>(span.layer)].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  auto layer_us = [&](Layer layer) -> const std::vector<double>& {
    return us[static_cast<std::size_t>(layer)];
  };
  auto layer_ms = [&](Layer layer) {
    std::vector<double> values = layer_us(layer);
    for (double& v : values) {
      v /= 1e3;
    }
    return values;
  };
  const double e2e_us = sum(e2e_wall) * 1e6;
  auto share = [&](std::initializer_list<Layer> layers) {
    double total = 0.0;
    for (Layer layer : layers) {
      total += sum(layer_us(layer));
    }
    return ratio(total, e2e_us);
  };

  std::vector<double> down_bytes;
  std::vector<double> abs_ops;
  std::vector<double> snapshot_bytes;
  double macs = 0.0;
  double evals = 0.0;
  double offsets = 0.0;
  for (const ReplayOutcome& outcome : outcomes) {
    for (const auto& stats : outcome.searches) {
      macs += static_cast<double>(stats.mac_ops);
      evals += static_cast<double>(stats.correlation_evals);
      offsets += static_cast<double>(stats.offsets_total);
    }
    down_bytes.insert(down_bytes.end(), outcome.down_bytes.begin(),
                      outcome.down_bytes.end());
    abs_ops.insert(abs_ops.end(), outcome.step_abs_ops.begin(),
                   outcome.step_abs_ops.end());
    snapshot_bytes.insert(snapshot_bytes.end(),
                          outcome.snapshot_bytes.begin(),
                          outcome.snapshot_bytes.end());
  }
  const double search_calls =
      static_cast<double>(layer_us(Layer::kSearch).size());

  double issued = 0.0;
  double delivered = 0.0;
  double call_failures = 0.0;
  double retries = 0.0;
  double duplicates = 0.0;
  double checkpoint_writes = 0.0;
  for (const core::RunResult& result : references) {
    for (const auto& record : result.iterations) {
      issued += record.cloud_call_issued ? 1.0 : 0.0;
    }
    delivered += static_cast<double>(result.cloud_calls);
    call_failures += static_cast<double>(result.failed_cloud_calls);
    retries += static_cast<double>(result.retry_attempts);
    duplicates += static_cast<double>(result.duplicates_discarded);
    checkpoint_writes +=
        static_cast<double>(result.robust.recovery.checkpoints_written);
  }

  std::vector<Metric> metrics = {
      {"mdb.load_s", median(setup.load_sec), "s"},
      {"mdb.bytes", static_cast<double>(inputs.mdb_bytes), "B"},
      {"fir.us_p50", layer_percentile(layer_us(Layer::kFir), 0.5, "fir"),
       "us"},
      {"fir.share", share({Layer::kFir}), "ratio"},
      {"transport.up_us_p50",
       layer_percentile(layer_us(Layer::kTransportUp), 0.5, "transport.up"),
       "us"},
      {"transport.down_ms_p50",
       layer_percentile(layer_ms(Layer::kTransportDown), 0.5,
                        "transport.down"),
       "ms"},
      {"transport.down_bytes",
       layer_percentile(down_bytes, 0.5, "transport.down_bytes"), "B"},
      {"transport.share",
       share({Layer::kTransportUp, Layer::kTransportDown}), "ratio"},
      {"search.calls", search_calls, "count"},
      {"search.ms_p50", layer_percentile(layer_ms(Layer::kSearch), 0.5, "search"),
       "ms"},
      {"search.ms_p90", layer_percentile(layer_ms(Layer::kSearch), 0.9, "search"),
       "ms"},
      {"search.macs_per_call", ratio(macs, search_calls), "count"},
      {"search.skip_ratio", offsets > 0.0 ? 1.0 - evals / offsets : 0.0,
       "ratio"},
      {"search.share", share({Layer::kSearch}), "ratio"},
      {"tracker.load_us_p50",
       layer_percentile(layer_us(Layer::kTrackerLoad), 0.5, "tracker.load"),
       "us"},
      {"tracker.step_us_p50",
       layer_percentile(layer_us(Layer::kTrackerStep), 0.5, "tracker.step"),
       "us"},
      {"tracker.step_us_p99",
       layer_percentile(layer_us(Layer::kTrackerStep), 0.99, "tracker.step"),
       "us"},
      {"tracker.abs_ops_p99",
       layer_percentile(abs_ops, 0.99, "tracker.abs_ops"), "count"},
      {"tracker.share", share({Layer::kTrackerLoad, Layer::kTrackerStep}),
       "ratio"},
      {"predictor.us_p50",
       layer_percentile(layer_us(Layer::kPredictor), 0.5, "predictor"), "us"},
      {"predictor.share", share({Layer::kPredictor}), "ratio"},
      {"cloud_call.issued", issued, "count"},
      {"cloud_call.delivered", delivered, "count"},
      {"cloud_call.failed", call_failures, "count"},
      {"cloud_call.retries", retries, "count"},
      {"cloud_call.duplicates", duplicates, "count"},
      {"cloud_call.delivered_per_issued", ratio(delivered, issued), "ratio"},
      {"checkpoint.writes", checkpoint_writes, "count"},
      {"checkpoint.write_ms_p50",
       layer_percentile(layer_ms(Layer::kCheckpoint), 0.5, "checkpoint"),
       "ms"},
      {"checkpoint.write_ms_p99",
       layer_percentile(layer_ms(Layer::kCheckpoint), 0.99, "checkpoint"),
       "ms"},
      {"checkpoint.bytes_p50",
       layer_percentile(snapshot_bytes, 0.5, "checkpoint.bytes"), "B"},
      {"checkpoint.share", share({Layer::kCheckpoint}), "ratio"},
      {"pipeline.other_share",
       1.0 - share({Layer::kFir, Layer::kTransportUp, Layer::kSearch,
                    Layer::kTransportDown, Layer::kTrackerLoad,
                    Layer::kTrackerStep, Layer::kPredictor,
                    Layer::kCheckpoint}),
       "ratio"},
      {"stream.raw_wps", ratio(stream.windows, stream.wall_sec), "windows/s"},
      {"stream.calls_vs_batch", ratio(stream.calls, delivered), "ratio"},
      {"stream.empty_set_ratio", ratio(stream.empty_windows, stream.windows),
       "ratio"},
      {"stream.decision_agreement",
       ratio(stream.agreeing, static_cast<double>(sessions.size())), "ratio"},
      {"stream.queue_max_depth", stream.queue_max_depth, "count"},
      {"stream.stage_restarts", stream.restarts, "count"},
      {"trace.overhead_share",
       ratio(overhead_on_sec - overhead_off_sec, overhead_off_sec), "ratio"},
  };

  std::printf("\nreplayed layer time per e2e session wall time:\n");
  for (const Metric& m : metrics) {
    if (m.name.ends_with(".share")) {
      std::printf("  %-22s %6.2f%%\n", m.name.c_str(), m.value * 100.0);
    }
  }
  const std::filesystem::path span_file =
      args.work_dir / "spans" /
      (std::string(workload_name(args.workload)) + "-seed" +
       std::to_string(args.seed) + ".jsonl");
  std::filesystem::create_directories(span_file.parent_path());
  spans.write_jsonl(span_file);
  std::printf("spans: %zu -> %s\n", spans.spans().size(), span_file.c_str());
  return {std::move(metrics), sessions.size(), warmup_sec};
}

int run(const Args& args) {
  const std::filesystem::path scratch =
      args.work_dir / (std::string(workload_name(args.workload)) + "-seed" +
                       std::to_string(args.seed) + "-pid" +
                       std::to_string(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{scratch};

  const auto gen_start = Clock::now();
  const Inputs inputs = generate_inputs(args, scratch);
  const double input_gen_s = seconds_since(gen_start);
  const Setup setup = measure_setup(
      inputs, pipeline_options(args.workload, args.seed, 0, scratch / "ckpt"));
  // The store every session's pipeline copies (loaded outside set-up).
  const mdb::MdbStore store = mdb::MdbStore::load(inputs.mdb_path);

  Failures failures(args.seed);
  const Outcome outcome =
      args.trace ? run_traced(args, inputs, setup, store, scratch, failures)
                 : run_timed(args, inputs, setup, store, scratch, failures);

  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"config\": \"%s\", "
      "\"nproc\": %u, \"workload\": \"%s\", \"seed\": %llu, "
      "\"sessions\": %zu, \"timed_rounds\": %zu, \"session_sec\": %g, "
      "\"run_seconds\": %zu, \"trace\": %d, \"input_gen_s\": %.3f}}\n",
      build_info::kGitSha, build_info::kBuildType, build_info::kCompiler,
      build_info::kFlags, core::EmapConfig{}.fingerprint().c_str(),
      std::thread::hardware_concurrency(), workload_name(args.workload),
      static_cast<unsigned long long>(args.seed), inputs.sessions.size(),
      args.trace ? std::size_t{0} : timed_rounds(args.seconds), kSessionSec,
      args.seconds, args.trace ? 1 : 0, input_gen_s + outcome.warmup_sec);
  std::printf("sessions_failed %zu of %zu\n", failures.count(),
              outcome.attempted);
  print_result(failures.count() == 0, outcome.attempted, failures.count(),
               outcome.metrics);
  return failures.count() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "loopbench: %s\n", error.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "loopbench: %s\n", error.what());
    return 2;
  }
}
