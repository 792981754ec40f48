// emapctl — the EMAP tool-flow driver.
//
// The paper promises an open-source tool-flow; this binary is that flow for
// the reproduction: generate corpora to EDF, build the mega-database from a
// directory of EDF files, inspect a database, and monitor a recording.
//
// Subcommands:
//   emapctl gen-corpus  <out-dir> [recordings-per-corpus]
//       Generates the five synthetic corpora as EDF files plus a labels
//       manifest (CSV: file,class,onset_sec,whole_signal).
//   emapctl build-mdb   <corpus-dir> <out.mdb>
//       Ingests every EDF listed in the manifest into a signal-set store
//       (resample -> bandpass -> slice -> label) and persists it.
//   emapctl info        <store.mdb>
//       Prints store statistics (sizes, labels, per-corpus counts).
//   emapctl monitor     <store.mdb> <input.edf> [onset_sec]
//       Runs the full pipeline on channel 0 of the EDF input and reports
//       the P_A trace and alarm.
//   emapctl synth-run   [duration_sec] [recordings-per-corpus]
//       Builds an in-memory MDB, monitors a synthetic seizure input, and
//       exercises the telemetry surface end to end (CI smoke path).
//   emapctl trace       <spans.jsonl> [--json]
//       Reconstructs per-window critical paths from a --spans-out file and
//       prints the Eq. 4 decomposition table; --json prints one JSONL
//       record per trace instead.
//   emapctl report      <record.jsonl> [--html <out.html>]
//                       [--series-filter <substring>]
//       Renders the post-run dashboard (ASCII sparklines with CUSUM
//       changepoints, the alert transitions, optional self-contained HTML)
//       from a --record-out file.
//
// Telemetry flags (monitor and synth-run):
//   --metrics-out <file>   write Prometheus text exposition at end of run
//   --trace-out <file>     write Chrome trace_event JSON (open in
//                          chrome://tracing or ui.perfetto.dev)
//   --summary-out <file>   append one JSONL record of headline numbers
//   --metrics-dump         print the metrics table to stdout at end of run
//   --profile-out <file>   enable the stage profiler; write the JSON
//                          profile (per-stage call/total/self-time table)
//   --flame-out <file>     enable the stage profiler; write collapsed
//                          stacks for flamegraph.pl / speedscope
//   --slo-report <file>    write the SLO summary (".csv" extension selects
//                          CSV, anything else JSON)
//   --record-out <file>    stream the per-window decision record as JSONL,
//                          one flushed line per completed window, alert
//                          transitions included (input for `emapctl
//                          report`; a resumed run's record starts at its
//                          resume window)
//
// Fault/retry flags (monitor and synth-run) — exercise the lossy-link
// recovery path (docs/fault_injection.md):
//   --fault-drop <p>       drop probability per message, both directions
//   --fault-corrupt <p>    bit-flip probability per message
//   --fault-duplicate <p>  duplicate-delivery probability
//   --fault-delay <p>      extra-delay probability
//   --fault-seed <n>       fault schedule seed (default 0x600dcafe)
//   --retry-attempts <n>   max attempts per cloud call (default 3)
//   --retry-deadline <s>   per-call cumulative wait cap (default 20 s)
//
// Robustness flags (monitor and synth-run) — the adaptive overload control
// loop (docs/robustness.md), always on:
//   --robust-report <file> write the robust summary JSON (controller
//                          states, shed levels, breaker/quality counters)
//
// Crash-recovery flags (monitor and synth-run) — crash-consistent
// checkpoint/restore (docs/robustness.md, "Crash recovery"):
//   --checkpoint-dir <dir> snapshot the session state into <dir> after
//                          every window (atomic write + rename, then one
//                          appended record per window)
//   --resume               restore from <dir>'s snapshot at run start and
//                          replay from the first un-checkpointed window
//   --crash-at <point[:n]> die (exit code 42, no destructors) at the n-th
//                          hit of the named crash point; names come from
//                          robust::crash_point_catalog()
//
// Tracing flags (monitor and synth-run) — causal tracing
// (docs/tracing.md):
//   --spans-out <file>     write the span log as JSONL (one span per line,
//                          trace ids included; input for `emapctl trace`)
//   --edge-slowdown <f>    divide the edge device throughput by f (> 1
//                          forces edge SLO misses; CI uses it to fire the
//                          edge burn alert deterministically)
//
// Streaming flags (monitor and synth-run) — the staged concurrent
// scheduler (docs/streaming.md):
//   --stream               run on the threaded stage graph (supervised
//                          stage threads over bounded queues) instead of
//                          the single-threaded virtual-time batch loop
//   --stage-threads <n>    uplink worker threads = max overlapping cloud
//                          calls (default 2)
//   --queue-capacity <n>   bound of every stage queue (default 8; rounded
//                          up to a power of two)
// --stream does not checkpoint: combined with --checkpoint-dir or --resume
// it is a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "emap/common/build_info.hpp"
#include "emap/common/error.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/core/report.hpp"
#include "emap/core/stream.hpp"
#include "emap/dsp/montage.hpp"
#include "emap/dsp/resample.hpp"
#include "emap/edf/edf.hpp"
#include "emap/mdb/builder.hpp"
#include "emap/obs/alert.hpp"
#include "emap/obs/dashboard.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/obs/profiler.hpp"
#include "emap/obs/slo.hpp"
#include "emap/obs/tracecat.hpp"
#include "emap/robust/robust.hpp"
#include "emap/sim/device.hpp"
#include "emap/synth/corpus.hpp"

namespace {

using namespace emap;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  emapctl gen-corpus <out-dir> [recordings-per-corpus]\n"
      "  emapctl build-mdb  <corpus-dir> <out.mdb>\n"
      "  emapctl info       <store.mdb>\n"
      "  emapctl monitor    <store.mdb> <input.edf> [onset_sec] "
      "[telemetry flags]\n"
      "  emapctl synth-run  [duration_sec] [recordings-per-corpus] "
      "[telemetry flags]\n"
      "  emapctl trace      <spans.jsonl> [--json]\n"
      "  emapctl report     <record.jsonl> [--html <out.html>] "
      "[--series-filter <s>]\n"
      "telemetry flags: --metrics-out <file> --trace-out <file> "
      "--summary-out <file> --metrics-dump\n"
      "profiling flags: --profile-out <file> --flame-out <file> "
      "--slo-report <file>\n"
      "record flags:    --record-out <file>\n"
      "fault flags:     --fault-drop <p> --fault-corrupt <p> "
      "--fault-duplicate <p> --fault-delay <p> --fault-seed <n>\n"
      "retry flags:     --retry-attempts <n> --retry-deadline <sec>\n"
      "robust flags:    --robust-report <file>\n"
      "recovery flags:  --checkpoint-dir <dir> --resume "
      "--crash-at <point[:n]>\n"
      "tracing flags:   --spans-out <file> --edge-slowdown <factor>\n"
      "streaming flags: --stream --stage-threads <n> "
      "--queue-capacity <n>\n");
  return 2;
}

/// Output switches of the telemetry surface plus the fault/retry model,
/// shared by `monitor` and `synth-run`.
struct TelemetryOptions {
  std::string metrics_out;
  std::string trace_out;
  std::string summary_out;
  std::string profile_out;
  std::string flame_out;
  std::string slo_report;
  std::string robust_report;
  bool metrics_dump = false;
  net::FaultOptions fault;
  net::RetryOptions retry;
  std::string checkpoint_dir;
  bool resume = false;
  std::string crash_at;  ///< "point" or "point:n" (1-based hit)
  std::string spans_out;
  double edge_slowdown = 1.0;  ///< > 1 divides edge device throughput
  std::string record_out;      ///< per-window decision record JSONL
  bool stream = false;         ///< threaded stage graph instead of batch
  std::size_t stage_threads = 2;
  std::size_t queue_capacity = 8;
};

/// Extracts telemetry and fault/retry flags from (argc, argv), leaving only
/// positional arguments behind.  Returns false on a malformed flag.
bool extract_telemetry_flags(int& argc, char** argv,
                             TelemetryOptions& telemetry) {
  int kept = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto take_value = [&](std::string& slot) {
      if (i + 1 >= argc) {
        return false;
      }
      slot = argv[++i];
      return true;
    };
    auto take_double = [&](auto setter) {
      if (i + 1 >= argc) {
        return false;
      }
      setter(std::atof(argv[++i]));
      return true;
    };
    if (arg == "--metrics-out") {
      if (!take_value(telemetry.metrics_out)) return false;
    } else if (arg == "--trace-out") {
      if (!take_value(telemetry.trace_out)) return false;
    } else if (arg == "--summary-out") {
      if (!take_value(telemetry.summary_out)) return false;
    } else if (arg == "--profile-out") {
      if (!take_value(telemetry.profile_out)) return false;
    } else if (arg == "--flame-out") {
      if (!take_value(telemetry.flame_out)) return false;
    } else if (arg == "--slo-report") {
      if (!take_value(telemetry.slo_report)) return false;
    } else if (arg == "--metrics-dump") {
      telemetry.metrics_dump = true;
    } else if (arg == "--robust-report") {
      if (!take_value(telemetry.robust_report)) return false;
    } else if (arg == "--fault-drop") {
      if (!take_double([&](double p) {
            telemetry.fault.up.drop = telemetry.fault.down.drop = p;
          }))
        return false;
    } else if (arg == "--fault-corrupt") {
      if (!take_double([&](double p) {
            telemetry.fault.up.corrupt = telemetry.fault.down.corrupt = p;
          }))
        return false;
    } else if (arg == "--fault-duplicate") {
      if (!take_double([&](double p) {
            telemetry.fault.up.duplicate = telemetry.fault.down.duplicate = p;
          }))
        return false;
    } else if (arg == "--fault-delay") {
      if (!take_double([&](double p) {
            telemetry.fault.up.delay = telemetry.fault.down.delay = p;
          }))
        return false;
    } else if (arg == "--fault-seed") {
      if (!take_double([&](double seed) {
            telemetry.fault.seed = static_cast<std::uint64_t>(seed);
          }))
        return false;
    } else if (arg == "--retry-attempts") {
      if (!take_double([&](double n) {
            telemetry.retry.max_attempts = static_cast<std::size_t>(n);
          }))
        return false;
    } else if (arg == "--retry-deadline") {
      if (!take_double(
              [&](double sec) { telemetry.retry.deadline_sec = sec; }))
        return false;
    } else if (arg == "--checkpoint-dir") {
      if (!take_value(telemetry.checkpoint_dir)) return false;
    } else if (arg == "--resume") {
      telemetry.resume = true;
    } else if (arg == "--crash-at") {
      if (!take_value(telemetry.crash_at)) return false;
    } else if (arg == "--spans-out") {
      if (!take_value(telemetry.spans_out)) return false;
    } else if (arg == "--edge-slowdown") {
      if (!take_double(
              [&](double factor) { telemetry.edge_slowdown = factor; }))
        return false;
    } else if (arg == "--record-out") {
      if (!take_value(telemetry.record_out)) return false;
    } else if (arg == "--stream") {
      telemetry.stream = true;
    } else if (arg == "--stage-threads") {
      if (!take_double([&](double n) {
            telemetry.stage_threads = static_cast<std::size_t>(n);
          }))
        return false;
    } else if (arg == "--queue-capacity") {
      if (!take_double([&](double n) {
            telemetry.queue_capacity = static_cast<std::size_t>(n);
          }))
        return false;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "emapctl: unknown flag %s\n", arg.c_str());
      return false;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (telemetry.stream &&
      (!telemetry.checkpoint_dir.empty() || telemetry.resume)) {
    std::fprintf(stderr,
                 "emapctl: --stream does not checkpoint; drop "
                 "--checkpoint-dir/--resume or run the batch loop\n");
    return false;
  }
  return true;
}

/// Applies the checkpoint/crash flags.  The crash registry lives in the
/// caller's frame; an armed point fires as a hard process exit (code 42,
/// no destructors) so the CI harness kill-and-resumes like a real crash.
/// Returns false on an unknown crash-point name.
bool apply_recovery_flags(const TelemetryOptions& telemetry,
                          core::PipelineOptions& options,
                          robust::CrashPointRegistry& crashpoints) {
  if (!telemetry.checkpoint_dir.empty()) {
    options.recovery.checkpoint_dir = telemetry.checkpoint_dir;
    options.recovery.resume = telemetry.resume;
  }
  if (!telemetry.crash_at.empty()) {
    robust::CrashSchedule schedule;
    schedule.point = telemetry.crash_at;
    const std::size_t colon = schedule.point.find(':');
    if (colon != std::string::npos) {
      schedule.hit = static_cast<std::uint64_t>(
          std::atoll(schedule.point.c_str() + colon + 1));
      schedule.point.resize(colon);
    }
    const auto& catalog = robust::crash_point_catalog();
    if (std::find(catalog.begin(), catalog.end(), schedule.point) ==
        catalog.end()) {
      std::fprintf(stderr, "emapctl: unknown crash point '%s'\n",
                   schedule.point.c_str());
      return false;
    }
    crashpoints.arm(std::move(schedule), robust::CrashAction::kExit);
    options.crashpoints = &crashpoints;
  }
  return true;
}

/// Slows the edge device model by --edge-slowdown, which pushes track
/// steps past the 1 s budget — the deterministic way to burn the edge SLO
/// and fire its alert.
void apply_edge_slowdown(const TelemetryOptions& telemetry,
                         core::PipelineOptions& options) {
  if (telemetry.edge_slowdown > 1.0) {
    sim::DeviceProfile edge = sim::edge_raspberry_pi();
    edge.name += "-slowed";
    edge.mac_ops_per_sec /= telemetry.edge_slowdown;
    edge.abs_ops_per_sec /= telemetry.edge_slowdown;
    edge.per_signal_overhead_sec *= telemetry.edge_slowdown;
    options.edge_device = edge;
  }
}

/// Runs `input` through the pipeline on the scheduler the flags selected:
/// the default single-threaded virtual-time batch loop, or (--stream) the
/// threaded stage graph with --stage-threads uplink workers and
/// --queue-capacity bounded queues (docs/streaming.md).  `stop_at_sec` < 0
/// monitors the whole input.
core::RunResult run_scheduled(const TelemetryOptions& telemetry,
                              core::EmapPipeline& pipeline,
                              const synth::Recording& input,
                              double stop_at_sec) {
  if (!telemetry.stream) {
    return pipeline.run(input, stop_at_sec);
  }
  core::StreamOptions stream_options;
  stream_options.stage_threads = telemetry.stage_threads;
  stream_options.queue_capacity = telemetry.queue_capacity;
  std::printf("streaming: threaded scheduler, %zu uplink worker(s), "
              "queue capacity %zu\n",
              stream_options.stage_threads, stream_options.queue_capacity);
  core::StreamPipeline stream(pipeline, stream_options);
  return stream.run(input, stop_at_sec);
}

/// After a streamed run: the supervisor scoreboard and the per-queue
/// occupancy columns (the same numbers --robust-report exports as
/// stage_*/q_* fields).
void print_stream_summary(const core::RunResult& result) {
  if (!result.robust.streamed) {
    return;
  }
  std::printf("stream supervisor: stalls=%zu restarts=%zu crashes=%zu\n",
              result.robust.supervisor_stalls,
              result.robust.supervisor_restarts,
              result.robust.supervisor_crashes);
  for (const auto& row : result.robust.stages) {
    if (row.queue.empty()) {
      continue;
    }
    std::printf("  queue %-9s depth max %llu/%llu  pushed %llu\n",
                row.queue.c_str(),
                static_cast<unsigned long long>(row.queue_max_depth),
                static_cast<unsigned long long>(row.queue_capacity),
                static_cast<unsigned long long>(row.queue_pushed));
  }
}

/// Turns on the global stage profiler when any profiling output was
/// requested.  Must run before the pipeline so the hot-path hooks record.
void maybe_enable_profiler(const TelemetryOptions& telemetry) {
  if (!telemetry.profile_out.empty() || !telemetry.flame_out.empty()) {
    obs::Profiler::set_enabled(true);
  }
}

/// Writes the requested telemetry outputs after a monitored run.
void emit_telemetry(const TelemetryOptions& telemetry,
                    obs::MetricsRegistry& registry,
                    const core::RunResult& result) {
  if (!telemetry.metrics_out.empty()) {
    if (obs::Profiler::enabled()) {
      obs::export_profiler_alloc_metrics(registry, obs::Profiler::instance());
    }
    obs::write_prometheus(telemetry.metrics_out, registry);
    std::printf("metrics -> %s\n", telemetry.metrics_out.c_str());
  }
  if (!telemetry.profile_out.empty()) {
    obs::write_profile_json(telemetry.profile_out,
                            obs::Profiler::instance());
    std::printf("profile -> %s\n", telemetry.profile_out.c_str());
  }
  if (!telemetry.flame_out.empty()) {
    obs::write_collapsed_stacks(telemetry.flame_out,
                                obs::Profiler::instance());
    std::printf("flame   -> %s (feed to flamegraph.pl or speedscope)\n",
                telemetry.flame_out.c_str());
  }
  if (!telemetry.slo_report.empty()) {
    obs::write_slo_report(telemetry.slo_report, result.slo);
    std::printf("slo     -> %s\n", telemetry.slo_report.c_str());
  }
  if (!telemetry.robust_report.empty()) {
    robust::write_robust_summary(telemetry.robust_report, result.robust);
    std::printf("robust  -> %s\n", telemetry.robust_report.c_str());
  }
  if (!telemetry.trace_out.empty()) {
    obs::write_chrome_trace(telemetry.trace_out, *result.tracer);
    std::printf("trace   -> %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                telemetry.trace_out.c_str());
  }
  if (!telemetry.spans_out.empty()) {
    obs::write_spans_jsonl(telemetry.spans_out, *result.tracer);
    std::printf("spans   -> %s (feed to 'emapctl trace')\n",
                telemetry.spans_out.c_str());
  }
  if (!telemetry.record_out.empty()) {
    std::printf("record  -> %s (%zu window(s), %zu alert transition(s); "
                "feed to 'emapctl report')\n",
                telemetry.record_out.c_str(), result.iterations.size(),
                result.alerts->transitions().size());
  }
  if (telemetry.metrics_dump) {
    std::printf("\n%s", obs::metrics_table(registry).c_str());
  }
}

/// One JSONL record of the run's headline numbers, led by the run name
/// and build provenance.
std::string run_summary_line(const std::string& run_name,
                             const core::RunResult& result,
                             double duration_sec) {
  obs::JsonWriter header;
  header.field("run", run_name)
      .field("git_sha", build_info::kGitSha)
      .field("build_type", build_info::kBuildType)
      .field("duration_sec", duration_sec);
  return core::run_summary_json(result, std::move(header));
}

/// The monitored run `monitor` and `synth-run` share: wires the flags into
/// the pipeline options, builds the pipeline over `store`, runs `input` on
/// the scheduler the flags selected (`stop_at_sec` < 0 = the whole input)
/// and prints the run's lines in order: "resumed", `headline`, "link
/// degraded", "overload handled", the stream summary and `verdict`.  Then
/// writes the `run_name` summary record and the telemetry outputs.
/// Returns the exit code.
int run_monitored(const TelemetryOptions& telemetry, mdb::MdbStore store,
                  const synth::Recording& input, double stop_at_sec,
                  const char* run_name, double duration_sec,
                  const std::function<void(const core::RunResult&)>& headline,
                  const std::function<void(const core::RunResult&)>& verdict) {
  maybe_enable_profiler(telemetry);
  obs::MetricsRegistry registry;
  core::PipelineOptions options;
  options.metrics = &registry;
  options.fault = telemetry.fault;
  options.retry = telemetry.retry;
  options.record_path = telemetry.record_out;
  robust::CrashPointRegistry crashpoints;
  if (!apply_recovery_flags(telemetry, options, crashpoints)) {
    return usage();
  }
  apply_edge_slowdown(telemetry, options);
  core::EmapPipeline pipeline(std::move(store),
                              core::EmapConfig::paper_defaults(), options);
  const auto result = run_scheduled(telemetry, pipeline, input, stop_at_sec);
  if (result.robust.recovery.resumed) {
    std::printf("resumed from checkpoint at window %zu\n",
                static_cast<std::size_t>(
                    result.robust.recovery.resume_window));
  }
  headline(result);
  if (result.degraded) {
    std::printf("link degraded: %zu cloud calls failed after %zu retries\n",
                result.failed_cloud_calls, result.retry_attempts);
  }
  if (result.robust.degrade.entered_degraded) {
    std::printf("overload handled: max shed level %zu, final state %s\n",
                result.robust.degrade.max_shed_level,
                robust::degrade_state_name(result.robust.degrade.final_state));
  }
  print_stream_summary(result);
  verdict(result);
  if (!telemetry.summary_out.empty()) {
    obs::append_jsonl_line(telemetry.summary_out,
                           run_summary_line(run_name, result, duration_sec));
    std::printf("summary -> %s\n", telemetry.summary_out.c_str());
  }
  emit_telemetry(telemetry, registry, result);
  return 0;
}

edf::EdfFile to_edf(const synth::Recording& recording) {
  edf::EdfFile file;
  file.sample_rate_hz = recording.fs();
  // EDF stores an integer number of samples per data record; non-integer
  // rates (UCI's 173.61 Hz) need a longer record duration.
  for (double duration : {1.0, 2.0, 4.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    const double spr = recording.fs() * duration;
    if (std::abs(spr - std::round(spr)) < 1e-6) {
      file.record_duration_sec = duration;
      break;
    }
  }
  file.recording_id = std::string("Startdate 01-JAN-2020 emap-synth ") +
                      synth::anomaly_name(recording.spec.cls);
  edf::EdfChannel channel;
  channel.label = "EEG synth";
  channel.physical_min = -400.0;
  channel.physical_max = 400.0;
  channel.samples = recording.samples;
  file.channels.push_back(std::move(channel));
  return file;
}

int cmd_gen_corpus(int argc, char** argv) {
  if (argc < 1) {
    return usage();
  }
  const std::filesystem::path out_dir = argv[0];
  const std::size_t per_corpus =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 12;
  std::filesystem::create_directories(out_dir);

  std::ofstream manifest(out_dir / "manifest.csv");
  manifest << "file,corpus,native_fs,class,onset_sec,whole_signal\n";
  std::size_t written = 0;
  for (const auto& corpus : synth::standard_corpora(per_corpus)) {
    const auto recordings = synth::generate_corpus(corpus);
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      const auto& recording = recordings[i];
      std::ostringstream name;
      name << corpus.name << "_" << i << ".edf";
      edf::write_edf(out_dir / name.str(), to_edf(recording));
      manifest << name.str() << ',' << corpus.name << ','
               << corpus.native_fs_hz << ','
               << synth::anomaly_name(recording.spec.cls) << ','
               << recording.spec.onset_sec << ','
               << (recording.spec.whole_signal_label ? 1 : 0) << "\n";
      ++written;
    }
    std::printf("corpus %-18s -> %zu recordings at %.2f Hz\n",
                corpus.name.c_str(), recordings.size(),
                corpus.native_fs_hz);
  }
  std::printf("wrote %zu EDF files + manifest.csv to %s\n", written,
              out_dir.c_str());
  return 0;
}

struct ManifestRow {
  std::string file;
  std::string corpus;
  synth::AnomalyClass cls = synth::AnomalyClass::kNormal;
  double onset_sec = 0.0;
  bool whole_signal = false;
};

std::vector<ManifestRow> read_manifest(const std::filesystem::path& dir) {
  std::ifstream stream(dir / "manifest.csv");
  if (!stream) {
    throw IoError("cannot open manifest.csv in " + dir.string());
  }
  std::vector<ManifestRow> rows;
  std::string line;
  std::getline(stream, line);  // header
  while (std::getline(stream, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    ManifestRow row;
    std::string cls;
    std::string fs;
    std::string onset;
    std::string whole;
    std::getline(fields, row.file, ',');
    std::getline(fields, row.corpus, ',');
    std::getline(fields, fs, ',');
    std::getline(fields, cls, ',');
    std::getline(fields, onset, ',');
    std::getline(fields, whole, ',');
    row.cls = synth::anomaly_from_name(cls);
    row.onset_sec = std::atof(onset.c_str());
    row.whole_signal = whole == "1";
    rows.push_back(std::move(row));
  }
  return rows;
}

int cmd_build_mdb(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::filesystem::path dir = argv[0];
  const std::filesystem::path out = argv[1];
  const auto rows = read_manifest(dir);

  mdb::MdbBuilder builder;
  std::uint32_t recording_index = 0;
  for (const auto& row : rows) {
    const bool anomalous_recording = row.cls != synth::AnomalyClass::kNormal;
    // Label function mirroring the corpora's annotation policies.
    const double anomalous_from =
        row.whole_signal
            ? 0.0
            : std::max(0.0, row.onset_sec -
                                synth::Morphology::kProdromeSeconds);
    auto label_at = [anomalous_recording, anomalous_from](double t) {
      return anomalous_recording && t >= anomalous_from;
    };
    builder.add_edf(dir / row.file, row.corpus, recording_index++, label_at,
                    static_cast<std::uint8_t>(row.cls));
  }
  auto store = builder.take_store();
  store.save(out);
  std::printf("built %s: %zu signal-sets (%zu anomalous) from %zu EDF "
              "files\n",
              out.c_str(), store.size(), store.count_anomalous(),
              rows.size());
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) {
    return usage();
  }
  const auto store = mdb::MdbStore::load(argv[0]);
  std::printf("store: %s\n", argv[0]);
  std::printf("  base rate     : %.2f Hz\n", store.info().base_fs_hz);
  std::printf("  slice length  : %u samples\n", store.info().slice_length);
  std::printf("  signal-sets   : %zu\n", store.size());
  std::printf("  anomalous     : %zu (%.1f%%)\n", store.count_anomalous(),
              store.empty() ? 0.0
                            : 100.0 * static_cast<double>(
                                          store.count_anomalous()) /
                                  static_cast<double>(store.size()));
  std::map<std::string, std::size_t> per_source;
  std::map<int, std::size_t> per_class;
  for (const auto& set : store.all()) {
    ++per_source[set.source];
    ++per_class[set.class_tag];
  }
  std::printf("  per corpus    :\n");
  for (const auto& [source, count] : per_source) {
    std::printf("    %-20s %zu\n", source.c_str(), count);
  }
  std::printf("  per class tag :\n");
  for (const auto& [tag, count] : per_class) {
    std::printf("    %-20s %zu\n",
                synth::anomaly_name(static_cast<synth::AnomalyClass>(tag)),
                count);
  }
  return 0;
}

int cmd_monitor(int argc, char** argv) {
  TelemetryOptions telemetry;
  if (!extract_telemetry_flags(argc, argv, telemetry)) {
    return usage();
  }
  if (argc < 2) {
    return usage();
  }
  auto store = mdb::MdbStore::load(argv[0]);
  const auto file = edf::read_edf(argv[1]);
  require(!file.channels.empty(), "monitor: EDF has no channels");
  const double onset =
      argc > 2 ? std::atof(argv[2]) : -1.0;

  // Pick the electrode with the strongest 11-40 Hz content (the EMAP
  // passband) and wrap it as a recording at the base rate.
  dsp::ChannelBlock block;
  for (const auto& channel : file.channels) {
    block.push_back(channel.samples);
  }
  const std::size_t picked = dsp::pick_channel(block, file.sample_rate_hz);
  std::printf("monitoring channel %zu/%zu ('%s')\n", picked + 1,
              file.channels.size(), file.channels[picked].label.c_str());
  synth::Recording input;
  input.spec.fs = 256.0;
  input.spec.cls = synth::AnomalyClass::kNormal;  // unknown; labels unused
  input.spec.duration_sec =
      static_cast<double>(file.channels[picked].samples.size()) /
      file.sample_rate_hz;
  input.samples = dsp::resample(file.channels[picked].samples,
                                file.sample_rate_hz, 256.0);

  return run_monitored(
      telemetry, std::move(store), input, onset > 0.0 ? onset : -1.0,
      "monitor", input.spec.duration_sec,
      [&](const core::RunResult& result) {
        std::printf("monitored %.0f s; cloud calls: %zu; Delta_initial "
                    "%.2f s\n",
                    input.spec.duration_sec, result.cloud_calls,
                    result.timings.delta_initial_sec);
      },
      [&](const core::RunResult& result) {
        for (std::size_t i = 0; i < result.iterations.size(); i += 15) {
          const auto& record = result.iterations[i];
          if (record.tracked) {
            std::printf("  t=%5.0f  P_A=%.2f  tracked=%zu\n", record.t_sec,
                        record.anomaly_probability, record.tracked_after);
          }
        }
        if (result.anomaly_predicted) {
          std::printf("ANOMALY PREDICTED at t=%.0f s%s\n",
                      result.first_alarm_sec,
                      onset > 0.0 ? " (before the provided onset)" : "");
        } else {
          std::printf("no anomaly predicted\n");
        }
      });
}

int cmd_synth_run(int argc, char** argv) {
  TelemetryOptions telemetry;
  if (!extract_telemetry_flags(argc, argv, telemetry)) {
    return usage();
  }
  const double duration_sec =
      argc > 0 ? std::atof(argv[0]) : 30.0;
  const std::size_t per_corpus =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 2;
  require(duration_sec >= 2.0, "synth-run: duration must be >= 2 s");
  require(per_corpus >= 1, "synth-run: need >= 1 recording per corpus");

  std::printf("building in-memory MDB (%zu recordings/corpus)...\n",
              per_corpus);
  mdb::MdbBuilder builder;
  for (const auto& corpus : synth::standard_corpora(per_corpus)) {
    const auto recordings = synth::generate_corpus(corpus);
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      builder.add_recording(recordings[i], corpus.name,
                            static_cast<std::uint32_t>(i));
    }
  }
  auto store = builder.take_store();
  std::printf("MDB ready: %zu signal-sets (%zu anomalous)\n", store.size(),
              store.count_anomalous());

  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 11;
  spec.duration_sec = duration_sec;
  spec.onset_sec = duration_sec * 0.75;
  const auto input = synth::make_eval_input(spec);

  return run_monitored(
      telemetry, std::move(store), input, -1.0, "synth-run", duration_sec,
      [&](const core::RunResult& result) {
        std::printf("monitored %.0f s; cloud calls: %zu; Delta_initial "
                    "%.3f s; mean edge iteration %.3f s\n",
                    duration_sec, result.cloud_calls,
                    result.timings.delta_initial_sec,
                    result.timings.mean_track_sec);
      },
      [](const core::RunResult& result) {
        std::printf(result.anomaly_predicted
                        ? "ANOMALY PREDICTED at t=%.0f s\n"
                        : "no alarm (t=%.0f)\n",
                    result.first_alarm_sec);
      });
}

int cmd_trace(int argc, char** argv) {
  std::string spans_path;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (spans_path.empty()) {
      spans_path = arg;
    } else {
      return usage();
    }
  }
  if (spans_path.empty()) {
    return usage();
  }
  const auto spans = obs::load_spans_jsonl(spans_path);
  const auto paths = obs::build_critical_paths(spans.spans);
  if (json) {
    // Machine-readable: one record per trace and nothing else on stdout.
    std::fputs(obs::critical_path_jsonl(paths).c_str(), stdout);
    return 0;
  }
  if (spans.skipped_lines > 0) {
    std::printf("spans: skipped %zu malformed line(s)\n",
                spans.skipped_lines);
  }
  std::fputs(obs::critical_path_table(paths).c_str(), stdout);
  return 0;
}

int cmd_report(int argc, char** argv) {
  std::string record_path;
  std::string html_path;
  std::string series_filter;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--html") {
      const char* v = value();
      if (v == nullptr) return usage();
      html_path = v;
    } else if (arg == "--series-filter") {
      const char* v = value();
      if (v == nullptr) return usage();
      series_filter = v;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (record_path.empty()) {
      record_path = arg;
    } else {
      return usage();
    }
  }
  if (record_path.empty()) {
    return usage();
  }
  const auto record = obs::load_record_jsonl(record_path);
  std::fputs(obs::render_ascii_report(record, series_filter).c_str(), stdout);
  if (!html_path.empty()) {
    std::ofstream html(html_path);
    require(static_cast<bool>(html), "report: cannot write the HTML output");
    html << obs::render_html_report(record, series_filter);
    std::printf("\nhtml report -> %s\n", html_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  try {
    if (std::strcmp(argv[1], "gen-corpus") == 0) {
      return cmd_gen_corpus(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "build-mdb") == 0) {
      return cmd_build_mdb(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "info") == 0) {
      return cmd_info(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "monitor") == 0) {
      return cmd_monitor(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "synth-run") == 0) {
      return cmd_synth_run(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "trace") == 0) {
      return cmd_trace(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "report") == 0) {
      return cmd_report(argc - 2, argv + 2);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "emapctl: %s\n", error.what());
    return 1;
  }
  return usage();
}
