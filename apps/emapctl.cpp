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
//   emapctl trace       <spans.jsonl> [flight.jsonl] [--json]
//       Reconstructs per-window critical paths from a --spans-out file
//       (plus an optional flight dump) and prints the Eq. 4 decomposition
//       table; --json prints one JSONL record per trace instead.
//   emapctl report      <series.jsonl> [--alerts <alerts.jsonl>]
//                       [--html <out.html>] [--series-filter <substring>]
//       Renders the post-run dashboard (ASCII sparklines with CUSUM
//       changepoints, optional self-contained HTML) from a --series-out
//       file and, optionally, the --alerts-out transition log.
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
// loop (docs/robustness.md):
//   --robust-off           disable the degradation controller, breaker,
//                          watchdog, and quality gate for this run
//   --robust-report <file> write the robust summary JSON (controller
//                          states, shed levels, breaker/quality counters)
//
// Crash-recovery flags (monitor and synth-run) — crash-consistent
// checkpoint/restore (docs/robustness.md, "Crash recovery"):
//   --checkpoint-dir <dir> snapshot the session state into <dir> at window
//                          boundaries (atomic write + rename)
//   --checkpoint-interval <n>  snapshot every n completed windows
//                          (default 1)
//   --resume               restore from <dir>'s snapshot at run start and
//                          replay from the first un-checkpointed window
//   --crash-at <point[:n]> die (exit code 42, no destructors) at the n-th
//                          hit of the named crash point; names come from
//                          robust::crash_point_catalog()
//
// Tracing flags (monitor and synth-run) — causal tracing + flight recorder
// (docs/tracing.md):
//   --spans-out <file>     write the span log as JSONL (one span per line,
//                          trace ids included; input for `emapctl trace`)
//   --flight-out <file>    arm the flight recorder; dumps here on a crash
//                          point, breaker open, or SLO burn page, and at
//                          end of run when nothing else triggered
//   --edge-slowdown <f>    divide the edge device throughput by f (> 1
//                          forces edge SLO misses; CI uses it to provoke
//                          a flight dump deterministically)
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
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "emap/common/build_info.hpp"
#include "emap/common/error.hpp"
#include "emap/core/pipeline.hpp"
#include "emap/core/stream.hpp"
#include "emap/dsp/montage.hpp"
#include "emap/dsp/resample.hpp"
#include "emap/edf/edf.hpp"
#include "emap/mdb/builder.hpp"
#include "emap/obs/alert.hpp"
#include "emap/obs/dashboard.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/flight.hpp"
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
      "  emapctl trace      <spans.jsonl> [flight.jsonl] [--json]\n"
      "  emapctl report     <series.jsonl> [--alerts <alerts.jsonl>] "
      "[--html <out.html>]\n"
      "telemetry flags: --metrics-out <file> --trace-out <file> "
      "--summary-out <file> --metrics-dump\n"
      "profiling flags: --profile-out <file> --flame-out <file> "
      "--slo-report <file>\n"
      "series flags:    --series-out <file> --alerts-out <file> "
      "--scrape-interval <sec> --alert-rules <file>\n"
      "fault flags:     --fault-drop <p> --fault-corrupt <p> "
      "--fault-duplicate <p> --fault-delay <p> --fault-seed <n>\n"
      "retry flags:     --retry-attempts <n> --retry-deadline <sec>\n"
      "robust flags:    --robust-off --robust-report <file>\n"
      "recovery flags:  --checkpoint-dir <dir> --checkpoint-interval <n> "
      "--resume --crash-at <point[:n]>\n"
      "tracing flags:   --spans-out <file> --flight-out <file> "
      "--edge-slowdown <factor>\n"
      "streaming flags: --stream --stage-threads <n> "
      "--queue-capacity <n> --drain-timeout <sec>\n");
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
  bool robust_off = false;
  net::FaultOptions fault;
  net::RetryOptions retry;
  std::string checkpoint_dir;
  std::size_t checkpoint_interval = 1;
  bool resume = false;
  std::string crash_at;  ///< "point" or "point:n" (1-based hit)
  std::string spans_out;
  std::string flight_out;
  double edge_slowdown = 1.0;  ///< > 1 divides edge device throughput
  std::string series_out;      ///< time-series JSONL (enables scraping)
  std::string alerts_out;      ///< alert-transition JSONL
  double scrape_interval_sec = 1.0;
  std::string alert_rules;     ///< rule file; empty = default rules
  bool stream = false;         ///< threaded stage graph instead of batch
  std::size_t stage_threads = 2;
  std::size_t queue_capacity = 8;
  /// Wall-clock budget for settling in-flight cloud calls at a streamed
  /// checkpoint before they fall back to to-replay entries.
  double drain_timeout_sec = 1.0;
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
    } else if (arg == "--robust-off") {
      telemetry.robust_off = true;
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
    } else if (arg == "--checkpoint-interval") {
      if (!take_double([&](double n) {
            telemetry.checkpoint_interval = static_cast<std::size_t>(n);
          }))
        return false;
    } else if (arg == "--resume") {
      telemetry.resume = true;
    } else if (arg == "--crash-at") {
      if (!take_value(telemetry.crash_at)) return false;
    } else if (arg == "--spans-out") {
      if (!take_value(telemetry.spans_out)) return false;
    } else if (arg == "--flight-out") {
      if (!take_value(telemetry.flight_out)) return false;
    } else if (arg == "--edge-slowdown") {
      if (!take_double(
              [&](double factor) { telemetry.edge_slowdown = factor; }))
        return false;
    } else if (arg == "--series-out") {
      if (!take_value(telemetry.series_out)) return false;
    } else if (arg == "--alerts-out") {
      if (!take_value(telemetry.alerts_out)) return false;
    } else if (arg == "--scrape-interval") {
      if (!take_double(
              [&](double sec) { telemetry.scrape_interval_sec = sec; }))
        return false;
    } else if (arg == "--alert-rules") {
      if (!take_value(telemetry.alert_rules)) return false;
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
    } else if (arg == "--drain-timeout") {
      if (!take_double(
              [&](double sec) { telemetry.drain_timeout_sec = sec; }))
        return false;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "emapctl: unknown flag %s\n", arg.c_str());
      return false;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
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
    options.recovery.interval_windows = telemetry.checkpoint_interval;
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

/// Applies the tracing flags: arms the flight recorder (the pipeline also
/// forwards it to the channel and crash-point registry) and slows the edge
/// device model by --edge-slowdown, which pushes track steps past the 1 s
/// budget — the deterministic way to provoke an SLO burn page and hence a
/// flight dump.  Returns the recorder the run uses, or nullptr when no
/// --flight-out was requested.
obs::FlightRecorder* apply_tracing_flags(const TelemetryOptions& telemetry,
                                         core::PipelineOptions& options,
                                         obs::FlightRecorder& flight) {
  if (telemetry.edge_slowdown > 1.0) {
    sim::DeviceProfile edge = sim::edge_raspberry_pi();
    edge.name += "-slowed";
    edge.mac_ops_per_sec /= telemetry.edge_slowdown;
    edge.abs_ops_per_sec /= telemetry.edge_slowdown;
    edge.per_signal_overhead_sec *= telemetry.edge_slowdown;
    options.edge_device = edge;
  }
  if (telemetry.flight_out.empty()) {
    return nullptr;
  }
  flight.set_dump_path(telemetry.flight_out);
  options.flight = &flight;
  return &flight;
}

/// Applies the time-series/alerting flags: any of --series-out or
/// --alerts-out turns scraping on; --alert-rules replaces the default
/// rule set.  Returns false on an unparseable rule file.
bool apply_timeseries_flags(const TelemetryOptions& telemetry,
                            core::PipelineOptions& options) {
  if (telemetry.series_out.empty() && telemetry.alerts_out.empty()) {
    return true;
  }
  options.timeseries.enabled = true;
  options.timeseries.scrape_interval_sec = telemetry.scrape_interval_sec;
  if (!telemetry.alert_rules.empty()) {
    std::string error;
    options.alert_rules = obs::load_alert_rules(telemetry.alert_rules, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "emapctl: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

/// Runs `input` through the pipeline on the scheduler the flags selected:
/// the default single-threaded virtual-time batch loop, or (--stream) the
/// threaded stage graph with --stage-threads uplink workers and
/// --queue-capacity bounded queues (docs/streaming.md).
core::RunResult run_scheduled(const TelemetryOptions& telemetry,
                              core::EmapPipeline& pipeline,
                              const synth::Recording& input) {
  if (!telemetry.stream) {
    return pipeline.run(input);
  }
  core::StreamOptions stream_options;
  stream_options.mode = core::SchedulerMode::kThreaded;
  stream_options.stage_threads = telemetry.stage_threads;
  stream_options.queue_capacity = telemetry.queue_capacity;
  stream_options.drain_timeout_sec = telemetry.drain_timeout_sec;
  std::printf("streaming: threaded scheduler, %zu uplink worker(s), "
              "queue capacity %zu\n",
              stream_options.stage_threads, stream_options.queue_capacity);
  if (!telemetry.checkpoint_dir.empty()) {
    std::printf("streaming checkpoints: every %zu window(s) into %s "
                "(drain timeout %.2f s)%s\n",
                telemetry.checkpoint_interval,
                telemetry.checkpoint_dir.c_str(),
                stream_options.drain_timeout_sec,
                telemetry.resume ? ", resuming" : "");
  }
  core::StreamPipeline stream(pipeline, stream_options);
  return stream.run(input);
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
    std::printf("  queue %-9s depth max %llu/%llu  pushed %llu  "
                "shed %llu\n",
                row.queue.c_str(),
                static_cast<unsigned long long>(row.queue_max_depth),
                static_cast<unsigned long long>(row.queue_capacity),
                static_cast<unsigned long long>(row.queue_pushed),
                static_cast<unsigned long long>(row.queue_shed));
  }
  const auto& recovery = result.robust.recovery;
  if (recovery.enabled) {
    std::printf("stream checkpoints: written=%llu last_window=%llu "
                "drain_timeouts=%llu replay_recorded=%llu aborts=%llu%s%s\n",
                static_cast<unsigned long long>(recovery.checkpoints_written),
                static_cast<unsigned long long>(recovery.last_snapshot_window),
                static_cast<unsigned long long>(recovery.drain_timeouts),
                static_cast<unsigned long long>(recovery.replay_recorded),
                static_cast<unsigned long long>(recovery.snapshot_aborts),
                recovery.emergency_snapshot ? " (emergency)" : "",
                recovery.resumed ? " (resumed)" : "");
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
                    const core::RunResult& result,
                    obs::FlightRecorder* flight = nullptr) {
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
  if (!telemetry.trace_out.empty() && result.tracer != nullptr) {
    obs::write_chrome_trace(telemetry.trace_out, *result.tracer);
    std::printf("trace   -> %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n",
                telemetry.trace_out.c_str());
  }
  if (!telemetry.spans_out.empty() && result.tracer != nullptr) {
    obs::write_spans_jsonl(telemetry.spans_out, *result.tracer);
    std::printf("spans   -> %s (feed to 'emapctl trace')\n",
                telemetry.spans_out.c_str());
  }
  if (!telemetry.series_out.empty() && result.series != nullptr) {
    result.series->write_jsonl(telemetry.series_out);
    std::printf("series  -> %s (%llu scrape(s); feed to 'emapctl report')\n",
                telemetry.series_out.c_str(),
                static_cast<unsigned long long>(result.series->scrapes()));
  }
  if (!telemetry.alerts_out.empty() && result.alerts != nullptr) {
    result.alerts->write_jsonl(telemetry.alerts_out);
    std::printf("alerts  -> %s (%zu transition(s))\n",
                telemetry.alerts_out.c_str(),
                result.alerts->transitions().size());
  }
  if (flight != nullptr) {
    // A breaker/SLO/crash trigger already wrote the interesting dump; only
    // dump at end of run when nothing else did, so that file survives.
    if (flight->dumps_written() == 0) {
      flight->trigger_dump("run_end");
    }
    std::printf("flight  -> %s (%llu dump(s))\n",
                telemetry.flight_out.c_str(),
                static_cast<unsigned long long>(flight->dumps_written()));
  }
  if (telemetry.metrics_dump) {
    std::printf("\n%s", obs::metrics_table(registry).c_str());
  }
}

/// One JSONL record of the run's headline numbers.
std::string run_summary_line(const std::string& run_name,
                             const core::RunResult& result,
                             double duration_sec) {
  obs::JsonWriter json;
  json.field("run", run_name)
      .field("git_sha", std::string(build_info::kGitSha))
      .field("build_type", std::string(build_info::kBuildType))
      .field("duration_sec", duration_sec)
      .field("windows", static_cast<std::uint64_t>(result.iterations.size()))
      .field("cloud_calls", static_cast<std::uint64_t>(result.cloud_calls))
      .field("delta_ec_sec", result.timings.delta_ec_sec)
      .field("delta_cs_sec", result.timings.delta_cs_sec)
      .field("delta_ce_sec", result.timings.delta_ce_sec)
      .field("delta_initial_sec", result.timings.delta_initial_sec)
      .field("mean_track_sec", result.timings.mean_track_sec)
      .field("max_track_sec", result.timings.max_track_sec)
      .field("anomaly_predicted", result.anomaly_predicted)
      .field("first_alarm_sec", result.first_alarm_sec)
      .field("failed_cloud_calls",
             static_cast<std::uint64_t>(result.failed_cloud_calls))
      .field("retry_attempts",
             static_cast<std::uint64_t>(result.retry_attempts))
      .field("duplicates_discarded",
             static_cast<std::uint64_t>(result.duplicates_discarded))
      .field("degraded", result.degraded)
      .field("robust_enabled", result.robust.enabled)
      .field("robust_entered_degraded",
             result.robust.degrade.entered_degraded)
      .field("robust_final_state",
             std::string(robust::degrade_state_name(
                 result.robust.degrade.final_state)));
  // Final P_A plus the recovery outcome: the CI crash-recovery matrix
  // diffs these fields between a crashed-then-resumed run and an
  // uninterrupted one.
  const auto pa = result.pa_history();
  json.field("final_pa", pa.empty() ? 0.0 : pa.back())
      .field("robust_recovered", result.robust.recovery.resumed)
      .field("recovery_resume_window",
             static_cast<std::uint64_t>(result.robust.recovery.resume_window))
      .field("recovery_checkpoints_written",
             static_cast<std::uint64_t>(
                 result.robust.recovery.checkpoints_written))
      .field("recovery_cold_start_fallback",
             result.robust.recovery.cold_start_fallback);
  for (const auto& slo : result.slo) {
    json.field("slo_" + slo.name + "_deadline_misses",
               static_cast<std::uint64_t>(slo.deadline_misses));
  }
  return json.str();
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
  const std::size_t picked =
      dsp::pick_channel(block, dsp::ChannelPick::kMaxBandPower,
                        file.sample_rate_hz);
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

  maybe_enable_profiler(telemetry);
  obs::MetricsRegistry registry;
  core::PipelineOptions pipeline_options;
  pipeline_options.metrics = &registry;
  pipeline_options.fault = telemetry.fault;
  pipeline_options.retry = telemetry.retry;
  pipeline_options.robust.enabled = !telemetry.robust_off;
  robust::CrashPointRegistry crashpoints;
  if (!apply_recovery_flags(telemetry, pipeline_options, crashpoints) ||
      !apply_timeseries_flags(telemetry, pipeline_options)) {
    return usage();
  }
  obs::FlightRecorder flight_recorder;
  obs::FlightRecorder* flight =
      apply_tracing_flags(telemetry, pipeline_options, flight_recorder);
  // The streaming scheduler reads stop_at_sec from the pipeline options
  // (it has no per-run override), so fold the onset in before running.
  if (telemetry.stream) {
    pipeline_options.stop_at_sec = onset > 0.0 ? onset : -1.0;
  }
  core::EmapPipeline pipeline(std::move(store),
                              core::EmapConfig::paper_defaults(),
                              pipeline_options);
  const auto result = telemetry.stream
                          ? run_scheduled(telemetry, pipeline, input)
                          : pipeline.run(input, onset > 0.0 ? onset : -1.0);
  if (result.robust.recovery.resumed) {
    std::printf("resumed from checkpoint at window %zu\n",
                static_cast<std::size_t>(
                    result.robust.recovery.resume_window));
  }

  std::printf("monitored %.0f s; cloud calls: %zu; Delta_initial %.2f s\n",
              input.spec.duration_sec, result.cloud_calls,
              result.timings.delta_initial_sec);
  if (result.degraded) {
    std::printf("link degraded: %zu cloud calls failed after %zu retries\n",
                result.failed_cloud_calls, result.retry_attempts);
  }
  if (result.robust.enabled && result.robust.degrade.entered_degraded) {
    std::printf("overload handled: max shed level %zu, final state %s\n",
                result.robust.degrade.max_shed_level,
                robust::degrade_state_name(result.robust.degrade.final_state));
  }
  print_stream_summary(result);
  for (std::size_t i = 0; i < result.iterations.size(); i += 15) {
    const auto& record = result.iterations[i];
    if (record.tracked) {
      std::printf("  t=%5.0f  P_A=%.2f  tracked=%zu\n", record.t_sec,
                  record.anomaly_probability, record.tracked_after);
    }
  }
  if (result.anomaly_predicted) {
    std::printf("ANOMALY PREDICTED at t=%.0f s%s\n", result.first_alarm_sec,
                onset > 0.0 ? " (before the provided onset)" : "");
  } else {
    std::printf("no anomaly predicted\n");
  }
  if (!telemetry.summary_out.empty()) {
    obs::append_jsonl_line(
        telemetry.summary_out,
        run_summary_line("monitor", result, input.spec.duration_sec));
    std::printf("summary -> %s\n", telemetry.summary_out.c_str());
  }
  emit_telemetry(telemetry, registry, result, flight);
  return 0;
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

  maybe_enable_profiler(telemetry);
  obs::MetricsRegistry registry;
  core::PipelineOptions options;
  options.metrics = &registry;
  options.fault = telemetry.fault;
  options.retry = telemetry.retry;
  options.robust.enabled = !telemetry.robust_off;
  robust::CrashPointRegistry crashpoints;
  if (!apply_recovery_flags(telemetry, options, crashpoints) ||
      !apply_timeseries_flags(telemetry, options)) {
    return usage();
  }
  obs::FlightRecorder flight_recorder;
  obs::FlightRecorder* flight =
      apply_tracing_flags(telemetry, options, flight_recorder);
  core::EmapPipeline pipeline(std::move(store),
                              core::EmapConfig::paper_defaults(), options);
  const auto result = run_scheduled(telemetry, pipeline, input);
  if (result.robust.recovery.resumed) {
    std::printf("resumed from checkpoint at window %zu\n",
                static_cast<std::size_t>(
                    result.robust.recovery.resume_window));
  }

  std::printf("monitored %.0f s; cloud calls: %zu; Delta_initial %.3f s; "
              "mean edge iteration %.3f s\n",
              duration_sec, result.cloud_calls,
              result.timings.delta_initial_sec,
              result.timings.mean_track_sec);
  if (result.degraded) {
    std::printf("link degraded: %zu cloud calls failed after %zu retries\n",
                result.failed_cloud_calls, result.retry_attempts);
  }
  if (result.robust.enabled && result.robust.degrade.entered_degraded) {
    std::printf("overload handled: max shed level %zu, final state %s\n",
                result.robust.degrade.max_shed_level,
                robust::degrade_state_name(result.robust.degrade.final_state));
  }
  print_stream_summary(result);
  std::printf(result.anomaly_predicted ? "ANOMALY PREDICTED at t=%.0f s\n"
                                       : "no alarm (t=%.0f)\n",
              result.first_alarm_sec);

  if (!telemetry.summary_out.empty()) {
    obs::append_jsonl_line(telemetry.summary_out,
                           run_summary_line("synth-run", result,
                                            duration_sec));
    std::printf("summary -> %s\n", telemetry.summary_out.c_str());
  }
  emit_telemetry(telemetry, registry, result, flight);
  return 0;
}

int cmd_trace(int argc, char** argv) {
  std::string spans_path;
  std::string flight_path;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (spans_path.empty()) {
      spans_path = arg;
    } else if (flight_path.empty()) {
      flight_path = arg;
    } else {
      return usage();
    }
  }
  if (spans_path.empty()) {
    return usage();
  }
  const auto spans = obs::load_spans_jsonl(spans_path);
  std::vector<obs::ParsedFlightEvent> events;
  std::string dump_reason;
  std::size_t flight_skipped = 0;
  if (!flight_path.empty()) {
    auto flight = obs::load_flight_jsonl(flight_path);
    events = std::move(flight.events);
    dump_reason = flight.dump_reason;
    flight_skipped = flight.skipped_lines;
  }
  const auto paths = obs::build_critical_paths(spans.spans, events);
  if (json) {
    // Machine-readable: one record per trace and nothing else on stdout.
    std::fputs(obs::critical_path_jsonl(paths).c_str(), stdout);
    return 0;
  }
  if (!dump_reason.empty()) {
    std::printf("flight dump reason: %s\n", dump_reason.c_str());
  }
  if (flight_skipped > 0) {
    std::printf("flight: skipped %zu malformed line(s)\n", flight_skipped);
  }
  if (spans.skipped_lines > 0) {
    std::printf("spans: skipped %zu malformed line(s)\n",
                spans.skipped_lines);
  }
  std::fputs(obs::critical_path_table(paths).c_str(), stdout);
  return 0;
}

int cmd_report(int argc, char** argv) {
  std::string series_path;
  std::string alerts_path;
  std::string html_path;
  obs::ReportOptions report;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--alerts") {
      const char* v = value();
      if (v == nullptr) return usage();
      alerts_path = v;
    } else if (arg == "--html") {
      const char* v = value();
      if (v == nullptr) return usage();
      html_path = v;
    } else if (arg == "--series-filter") {
      const char* v = value();
      if (v == nullptr) return usage();
      report.series_filter = v;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (series_path.empty()) {
      series_path = arg;
    } else {
      return usage();
    }
  }
  if (series_path.empty()) {
    return usage();
  }
  const auto series = obs::load_series_jsonl(series_path);
  obs::AlertLoadResult alerts;
  if (!alerts_path.empty()) {
    alerts = obs::load_alerts_jsonl(alerts_path);
  }
  std::fputs(obs::render_ascii_report(series, alerts, report).c_str(),
             stdout);
  if (!html_path.empty()) {
    std::ofstream html(html_path);
    require(static_cast<bool>(html), "report: cannot write the HTML output");
    html << obs::render_html_report(series, alerts, report);
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
