// Session: the state and per-window steps of one monitored input.
//
// EMAP is one closed loop (paper Fig. 3, Fig. 9): filter, deliver a
// finished cloud search, run Algorithm 2, update P_A, feed the outcome
// back into the robustness controller.  Both schedulers run that loop
// through a Session:
//
//   EmapPipeline::run       calls the steps inline, one window at a time,
//                           holding at most one outstanding cloud call;
//   StreamPipeline (kThreaded) calls open_window on its acquire stage,
//                           filter on its filter stage, begin_window →
//                           deliver → track → feedback on its track stage,
//                           and the predictor + scrape on its predict stage.
//
// What the schedulers still do differently stays with them: when a finished
// call reaches deliver() (batch: at its virtual ready time; threaded: once
// the uplink worker has also finished on the wall clock), where the
// predictor observes P_A, and the queue pressure passed to feedback() (0 in
// batch).  Snapshots follow the same split: capture() fills the fields both
// share and the scheduler adds its own (batch: the pending call and link
// RNG cursors; threaded: the completed/replay ledger and worker cursors).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/robust/checkpoint.hpp"

namespace emap::core {

class Session {
 public:
  /// Builds the per-run state for `input` (validated against the config).
  /// `stop_at_sec` < 0 monitors the whole input.  Borrows the pipeline and
  /// the input for the session's lifetime.
  Session(const EmapPipeline& pipeline, const synth::Recording& input,
          double stop_at_sec);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- Recovery. ----

  /// With recovery.resume set, reads the snapshot and rejects it unless its
  /// config, input and stream topology (`stream_fp`, empty for the batch
  /// loop) and its worker-cursor count match this run; then restores every
  /// field both schedulers share and returns the snapshot so the scheduler
  /// can restore its own.  A missing or rejected snapshot falls back to a
  /// cold start (nullopt), or rethrows under recovery.strict.
  std::optional<robust::SessionState> resume(const std::string& stream_fp,
                                             std::size_t workers);

  /// The shared snapshot fields as of `next_window`.  The caller guarantees
  /// no window is in progress.
  robust::SessionState capture(std::size_t next_window) const;

  /// Atomically writes `state` and records it in the recovery summary, the
  /// metrics and the flight recorder (as `flight_label`, `flight_trace`).
  void publish(const robust::SessionState& state, const char* flight_label,
               std::uint64_t flight_trace);

  // ---- Per-window steps, in loop order. ----

  /// First window this run executes (the snapshot's next window on resume).
  std::size_t first_window() const { return first_window_; }
  /// Whether window `w` lies inside the run (input length, max_windows,
  /// stop_at_sec, and an alarm already latched by a restored predictor).
  bool monitors(std::size_t w) const;
  /// Raw input samples of window `w`.
  std::span<const double> raw_window(std::size_t w) const;
  /// Deterministic trace id of window `w` (0 with causal tracing off).
  std::uint64_t window_trace(std::size_t w) const;

  /// Mints window `w`'s trace and records its root, sample and filter
  /// spans plus the flight-recorder window mark.
  obs::TraceContext open_window(std::size_t w);
  /// FIR-filters one raw window (the quality gate assesses it first).
  std::vector<double> filter(std::span<const double> raw);
  /// Starts window `w`'s record and applies the controller's decisions
  /// from the state the previous window left behind (stride, recall
  /// threshold, shed cap).
  IterationRecord begin_window(std::size_t w, robust::QualityVerdict quality);
  /// Delivers one finished cloud call: loads its set (truncated to the
  /// record's shed cap), counts a stale success, or degrades on a failure.
  void deliver(PendingSearch&& call, IterationRecord& record);
  /// Runs the window's Algorithm 2 step, or serves the last P_A while
  /// CRITICAL or quality-gated.  Returns true when a cloud call should be
  /// issued now: the tracker wants one (every window before the first
  /// load), fewer than `max_outstanding` are outstanding (one before the
  /// first load), and the circuit breaker admits it.
  bool track(std::span<const double> filtered, std::size_t outstanding,
             std::size_t max_outstanding, const obs::TraceContext& window,
             IterationRecord& record);
  /// Feeds the window's outcome back into the controller, then logs
  /// breaker edges and takes the one-shot SLO-burn and watchdog dumps.
  void feedback(const IterationRecord& record, double queue_pressure,
                const obs::TraceContext& window);
  /// Scrapes the time series at the window boundary and evaluates alerts.
  void scrape(double t_end, std::uint64_t trace_id);

  /// Completes and hands over the run record (call once, after the loop).
  RunResult finish();

  // ---- Pieces the schedulers drive directly. ----

  EdgeNode edge;
  RunResult result;

  obs::Tracer* tracer() const { return tracer_; }
  obs::FlightRecorder* flight() const { return flight_; }
  robust::CrashPointRegistry* crashpoints() const { return crashpoints_; }
  robust::CircuitBreaker* breaker() { return breaker_ ? &*breaker_ : nullptr; }
  robust::DegradationController* controller() {
    return controller_ ? &*controller_ : nullptr;
  }

 private:
  void flush_deferred();
  robust::QualitySummary quality_total() const;
  std::size_t watchdog_total() const;

  const EmapPipeline& pipeline_;
  const EmapConfig& config_;
  const PipelineOptions& options_;
  const synth::Recording& input_;
  const double stop_at_sec_;
  const std::string config_fp_;
  const std::uint32_t input_fp_;
  std::size_t first_window_ = 0;
  std::size_t end_window_ = 0;

  std::optional<robust::DegradationController> controller_;
  std::optional<robust::CircuitBreaker> breaker_;
  std::optional<robust::StageWatchdog> watchdog_;
  std::optional<robust::SignalQualityGate> quality_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t trace_seed_ = 0;
  obs::FlightRecorder* flight_ = nullptr;
  robust::CrashPointRegistry* crashpoints_ = nullptr;
  std::shared_ptr<obs::TimeSeriesStore> series_store_;
  std::optional<obs::TimeSeriesScraper> scraper_;
  std::shared_ptr<obs::AlertEngine> alert_engine_;
  // Fresh per run (runs are independent); the registry-side emap_slo_*
  // counters accumulate across runs like every other pipeline metric.
  // Emplaced last in the constructor so a fresh registry lists the SLO
  // families after the tracker and robust ones.
  std::optional<obs::SloMonitor> edge_slo_;
  std::optional<obs::SloMonitor> initial_slo_;

  // Carried across windows (and across a crash, via the snapshot).
  /// P_A served while tracking is suspended (CRITICAL) or a window is
  /// quality-gated: the last value a real tracking step produced.
  double last_pa_ = 0.0;
  std::int64_t last_loaded_sequence_ = -1;
  bool first_round_trip_recorded_ = false;
  double total_track_sec_ = 0.0;
  std::size_t track_steps_ = 0;
  /// Baselines carried over from a restored snapshot for components whose
  /// own counters restart at zero in the resumed process (watchdog trips,
  /// quality-gate verdicts); folded back in at summary time.
  std::size_t watchdog_trips_base_ = 0;
  robust::QualitySummary quality_base_{};
  double last_window_end_sec_ = 0.0;

  // Per-window scratch between track() and feedback().
  bool stage_stuck_ = false;

  /// Non-essential telemetry observations buffered while the controller is
  /// away from NOMINAL; flushed on return to NOMINAL or at run end.
  std::vector<double> deferred_track_obs_;

  // One-shot flight-dump latches (a page or a breaker open is interesting
  // once; re-dumping every subsequent window would just thrash the file).
  bool slo_burn_paged_ = false;
  bool breaker_dumped_ = false;
  bool watchdog_dumped_ = false;
  bool watchdog_dump_pending_ = false;
  robust::BreakerState last_breaker_state_ = robust::BreakerState::kClosed;
};

}  // namespace emap::core
