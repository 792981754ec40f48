#include "emap/core/session.hpp"

#include <algorithm>
#include <cmath>

#include "emap/common/crc32.hpp"
#include "emap/common/error.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/flight.hpp"
#include "emap/robust/crashpoint.hpp"

namespace emap::core {

Session::Session(const EmapPipeline& pipeline, const synth::Recording& input,
                 double stop_at_sec)
    : edge(pipeline.config_),
      pipeline_(pipeline),
      config_(pipeline.config_),
      options_(pipeline.options_),
      input_(input),
      stop_at_sec_(stop_at_sec),
      config_fp_(pipeline.config_.fingerprint()),
      input_fp_(crc32(input.samples.data(),
                      input.samples.size() * sizeof(double))) {
  require(std::abs(input.fs() - config_.base_fs_hz) < 1e-9,
          "run: input must be sampled at the base rate");
  const std::size_t window = config_.window_length;
  require(input.samples.size() >= window,
          "run: input shorter than one window");
  end_window_ = std::min(options_.max_windows, input.samples.size() / window);
  if (options_.metrics != nullptr) {
    edge.tracker().set_metrics(options_.metrics);
  }

  // Robustness closed loop: fresh per run, so every counter and state
  // machine starts NOMINAL/closed (the per-run reset regression test
  // reuses one pipeline across runs and asserts exactly this).
  result.robust.enabled = options_.robust.enabled;
  if (options_.robust.enabled) {
    controller_.emplace(options_.robust.degrade, options_.metrics);
    breaker_.emplace(options_.robust.breaker, options_.metrics);
    watchdog_.emplace(options_.robust.watchdog, options_.metrics);
    if (options_.robust.quality_gate) {
      quality_.emplace(options_.robust.quality, options_.metrics);
      edge.set_quality_gate(&*quality_);
    }
  }
  if (options_.collect_trace) {
    result.tracer = std::make_shared<obs::Tracer>();
    tracer_ = result.tracer.get();
  }
  // Causal tracing: every window mints a deterministic trace id from this
  // seed.  It rides the span log, so no tracer means no tracing — and the
  // wire stays byte-identical V1 (the bit-identity tests rely on that).
  trace_seed_ = tracer_ != nullptr ? options_.trace_seed : 0;
  flight_ = options_.flight;
  crashpoints_ = options_.crashpoints;
  if (crashpoints_ != nullptr) {
    crashpoints_->set_flight_recorder(flight_);
  }

  // Time-series scraping + alerting, both strictly opt-in: disabled, no
  // hook runs anywhere in the loop and the run is bit-identical to a
  // build without this subsystem.
  if (options_.timeseries.enabled && options_.metrics != nullptr) {
    // These families measure *host* time (ScopedTimer / search wall
    // clock), so their values differ between identical seeded runs.
    // Excluding them keeps the exported JSONL bit-identical run to run;
    // every other family the pipeline records is virtual-clock driven.
    obs::TimeSeriesOptions scrape_options = options_.timeseries;
    for (const char* family :
         {"emap_search_wall_seconds", "emap_codec_encode_seconds",
          "emap_codec_decode_seconds"}) {
      scrape_options.skip_families.emplace_back(family);
    }
    series_store_ = std::make_shared<obs::TimeSeriesStore>(scrape_options);
    scraper_.emplace(options_.metrics, series_store_.get());
    result.series = series_store_;
    if (options_.alerts_enabled) {
      obs::AlertEngine::Hooks hooks;
      hooks.registry = options_.metrics;
      hooks.tracer = tracer_;
      hooks.flight = flight_;
      alert_engine_ = std::make_shared<obs::AlertEngine>(
          options_.alert_rules.empty() ? obs::default_alert_rules()
                                       : options_.alert_rules,
          hooks);
      result.alerts = alert_engine_;
    }
  }
  edge_slo_.emplace(obs::edge_iteration_slo(), options_.metrics);
  initial_slo_.emplace(obs::initial_response_slo(), options_.metrics);
  result.robust.recovery.enabled = options_.recovery.enabled();
}

std::optional<robust::SessionState> Session::resume(
    const std::string& stream_fp, std::size_t workers) {
  const robust::RecoveryOptions& recovery = options_.recovery;
  if (!recovery.enabled() || !recovery.resume) {
    return std::nullopt;
  }
  robust::RecoverySummary& summary = result.robust.recovery;
  const auto& metrics = pipeline_.metrics_;
  try {
    std::optional<robust::SessionState> snapshot =
        robust::read_checkpoint(recovery.checkpoint_dir);
    if (!snapshot.has_value()) {
      throw robust::CheckpointError("checkpoint: no snapshot in " +
                                    recovery.checkpoint_dir.string());
    }
    if (snapshot->config_fingerprint != config_fp_) {
      throw robust::CheckpointError(
          "checkpoint: config fingerprint mismatch (snapshot " +
          snapshot->config_fingerprint + ", pipeline " + config_fp_ + ")");
    }
    if (snapshot->input_fingerprint != input_fp_) {
      throw robust::CheckpointError(
          "checkpoint: input fingerprint mismatch — snapshot belongs to "
          "a different recording");
    }
    if (snapshot->stream_fingerprint != stream_fp) {
      throw robust::CheckpointError(
          "checkpoint: stream topology mismatch (snapshot \"" +
          snapshot->stream_fingerprint +
          (stream_fp.empty()
               ? "\", batch loop takes only virtual-time snapshots)"
               : "\", run \"" + stream_fp + "\")"));
    }
    if (snapshot->workers.size() != workers) {
      // Unreachable while worker count rides the fingerprint, but a
      // truncated-yet-valid payload must never index out of range.
      throw robust::CheckpointError(
          "checkpoint: stream topology mismatch (snapshot carries " +
          std::to_string(snapshot->workers.size()) +
          " worker cursors, run has " + std::to_string(workers) + ")");
    }
    robust::SessionState& s = *snapshot;
    std::vector<TrackedSignal> tracked;
    tracked.reserve(s.tracker.tracked.size());
    for (robust::TrackedSignalState& signal : s.tracker.tracked) {
      tracked.push_back(from_signal_state(std::move(signal)));
    }
    edge.tracker().restore(
        std::move(tracked), s.tracker.loaded,
        static_cast<std::size_t>(s.tracker.steps_since_load));
    edge.predictor().restore(
        std::move(s.predictor.history), s.predictor.alarmed,
        s.predictor.alarm_time_sec,
        static_cast<std::size_t>(s.predictor.consecutive));
    edge.filter().restore_stream(s.fir);
    if (controller_) {
      controller_->restore(s.degrade);
    }
    if (breaker_) {
      breaker_->restore(s.breaker);
      last_breaker_state_ = breaker_->state();
    }
    edge_slo_->restore_state(s.edge_slo);
    initial_slo_->restore_state(s.initial_slo);
    if (trace_seed_ != 0 && s.trace_seed != 0) {
      // Re-adopt the writing run's seed: windows keep the trace ids the
      // uninterrupted run would have minted — lineage survives the crash.
      trace_seed_ = s.trace_seed;
    }
    last_pa_ = s.last_pa;
    last_loaded_sequence_ = s.last_loaded_sequence;
    first_round_trip_recorded_ = s.counters.first_round_trip_recorded;
    total_track_sec_ = s.counters.total_track_sec;
    track_steps_ = static_cast<std::size_t>(s.counters.track_steps);
    result.cloud_calls = static_cast<std::size_t>(s.counters.cloud_calls);
    result.failed_cloud_calls =
        static_cast<std::size_t>(s.counters.failed_cloud_calls);
    result.retry_attempts =
        static_cast<std::size_t>(s.counters.retry_attempts);
    result.duplicates_discarded =
        static_cast<std::size_t>(s.counters.duplicates_discarded);
    result.degraded = s.counters.degraded;
    result.timings.delta_ec_sec = s.counters.delta_ec_sec;
    result.timings.delta_cs_sec = s.counters.delta_cs_sec;
    result.timings.delta_ce_sec = s.counters.delta_ce_sec;
    result.timings.delta_initial_sec = s.counters.delta_initial_sec;
    result.timings.max_track_sec = s.counters.max_track_sec;
    result.robust.critical_windows =
        static_cast<std::size_t>(s.counters.critical_windows);
    result.robust.shed_loads = static_cast<std::size_t>(s.counters.shed_loads);
    result.robust.deferred_flushes =
        static_cast<std::size_t>(s.counters.deferred_flushes);
    watchdog_trips_base_ = static_cast<std::size_t>(s.counters.watchdog_trips);
    quality_base_ = s.counters.quality;
    first_window_ = static_cast<std::size_t>(s.next_window);
    summary.resumed = true;
    summary.resume_window = first_window_;
    summary.last_snapshot_window = s.next_window;
    if (metrics.recovery_resumes != nullptr) {
      metrics.recovery_resumes->increment();
      metrics.recovery_resume_window->set(static_cast<double>(first_window_));
    }
    const std::uint64_t resume_trace = window_trace(first_window_);
    if (tracer_ != nullptr) {
      const double t_resume = static_cast<double>(first_window_);
      tracer_->record_sim("recovery_resume", "recovery", t_resume, t_resume,
                          0, resume_trace);
    }
    if (flight_ != nullptr) {
      flight_->log(obs::FlightEventType::kResume, "resume",
                   static_cast<double>(first_window_), resume_trace,
                   static_cast<double>(first_window_));
    }
    if (options_.stop_on_alarm && edge.predictor().anomaly_predicted()) {
      // The restored predictor already latched its alarm; nothing is left
      // to monitor.
      end_window_ = first_window_;
    }
    return snapshot;
  } catch (const robust::CheckpointError& error) {
    // Missing or rejected snapshot: fail closed in strict mode, fall back
    // to a cold start otherwise (the run is then a fresh session).
    if (recovery.strict) {
      throw;
    }
    summary.cold_start_fallback = true;
    summary.reject_reason = error.what();
    if (metrics.recovery_cold_starts != nullptr) {
      metrics.recovery_cold_starts->increment();
    }
    return std::nullopt;
  }
}

robust::SessionState Session::capture(std::size_t next_window) const {
  robust::SessionState s;
  s.config_fingerprint = config_fp_;
  s.input_fingerprint = input_fp_;
  s.next_window = next_window;
  s.last_pa = last_pa_;
  s.last_loaded_sequence = last_loaded_sequence_;
  s.counters.cloud_calls = result.cloud_calls;
  s.counters.failed_cloud_calls = result.failed_cloud_calls;
  s.counters.retry_attempts = result.retry_attempts;
  s.counters.duplicates_discarded = result.duplicates_discarded;
  s.counters.degraded = result.degraded;
  s.counters.first_round_trip_recorded = first_round_trip_recorded_;
  s.counters.delta_ec_sec = result.timings.delta_ec_sec;
  s.counters.delta_cs_sec = result.timings.delta_cs_sec;
  s.counters.delta_ce_sec = result.timings.delta_ce_sec;
  s.counters.delta_initial_sec = result.timings.delta_initial_sec;
  s.counters.total_track_sec = total_track_sec_;
  s.counters.track_steps = track_steps_;
  s.counters.max_track_sec = result.timings.max_track_sec;
  s.counters.critical_windows = result.robust.critical_windows;
  s.counters.shed_loads = result.robust.shed_loads;
  s.counters.deferred_flushes = result.robust.deferred_flushes;
  s.counters.watchdog_trips = watchdog_total();
  s.counters.quality = quality_total();
  s.tracker.loaded = edge.tracker().loaded();
  s.tracker.steps_since_load = edge.tracker().steps_since_load();
  s.tracker.tracked.reserve(edge.tracker().active().size());
  for (const TrackedSignal& signal : edge.tracker().active()) {
    s.tracker.tracked.push_back(to_signal_state(signal));
  }
  s.predictor.history = edge.predictor().history();
  s.predictor.alarmed = edge.predictor().anomaly_predicted();
  s.predictor.alarm_time_sec = edge.predictor().first_alarm_sec();
  s.predictor.consecutive = edge.predictor().consecutive_hits();
  s.fir = edge.filter().save_stream();
  if (controller_) {
    s.degrade = controller_->checkpoint();
  }
  if (breaker_) {
    s.breaker = breaker_->checkpoint();
  }
  s.edge_slo = edge_slo_->save_state();
  s.initial_slo = initial_slo_->save_state();
  s.trace_seed = trace_seed_;
  return s;
}

void Session::publish(const robust::SessionState& state,
                      const char* flight_label, std::uint64_t flight_trace) {
  robust::RecoverySummary& summary = result.robust.recovery;
  summary.replay_recorded += state.replay.size();
  robust::write_checkpoint(options_.recovery.checkpoint_dir, state,
                           crashpoints_);
  ++summary.checkpoints_written;
  summary.last_snapshot_window = state.next_window;
  if (pipeline_.metrics_.recovery_checkpoints != nullptr) {
    pipeline_.metrics_.recovery_checkpoints->increment();
  }
  if (flight_ != nullptr) {
    const double next_window = static_cast<double>(state.next_window);
    flight_->log(obs::FlightEventType::kCheckpoint, flight_label,
                 next_window, flight_trace, next_window);
  }
}

bool Session::monitors(std::size_t w) const {
  // Window w covers input time [w, w+1) seconds; processing happens at its
  // completion instant.
  const double t_end = static_cast<double>(w + 1);
  return w < end_window_ && !(stop_at_sec_ >= 0.0 && t_end > stop_at_sec_);
}

std::span<const double> Session::raw_window(std::size_t w) const {
  const std::size_t window = config_.window_length;
  return {input_.samples.data() + w * window, window};
}

std::uint64_t Session::window_trace(std::size_t w) const {
  return trace_seed_ != 0 ? obs::mint_trace_id(trace_seed_, w) : 0;
}

obs::TraceContext Session::open_window(std::size_t w) {
  // The window's causal identity: a deterministic trace id (pure function
  // of seed and index) and a root span every edge- and cloud-side span of
  // this window hangs off, directly or over the wire.
  const double t_end = static_cast<double>(w + 1);
  obs::TraceContext window{window_trace(w), 0};
  if (tracer_ != nullptr) {
    window.parent_span =
        tracer_->record_sim("window_" + std::to_string(w), "window",
                            t_end - 1.0, t_end, 0, window.trace_id);
    tracer_->record_sim("sample", "sample", t_end - 1.0, t_end,
                        window.parent_span, window.trace_id);
    tracer_->record_sim("filter", "filter", t_end,
                        t_end + options_.filter_accelerator_sec,
                        window.parent_span, window.trace_id);
  }
  if (flight_ != nullptr) {
    flight_->log(obs::FlightEventType::kSpan,
                 ("window_" + std::to_string(w)).c_str(), t_end,
                 window.trace_id, static_cast<double>(w));
  }
  return window;
}

std::vector<double> Session::filter(std::span<const double> raw) {
  std::vector<double> filtered = edge.acquire_window(raw);
  if (pipeline_.metrics_.windows != nullptr) {
    pipeline_.metrics_.windows->increment();
  }
  return filtered;
}

IterationRecord Session::begin_window(std::size_t w,
                                      robust::QualityVerdict quality) {
  IterationRecord record;
  record.window_index = w;
  record.t_sec = static_cast<double>(w + 1);
  record.recovered = result.robust.recovery.resumed;
  record.quality = quality;
  // Act on the state the previous window left behind, run the window, feed
  // the outcome back.
  if (controller_) {
    record.robust_state = controller_->state();
    edge.tracker().set_stride_multiplier(controller_->stride_multiplier());
    if (controller_->shed_level() > 0) {
      record.shed_cap = controller_->tracked_cap(config_.top_k);
      edge.tracker().set_recall_threshold(controller_->recall_threshold(
          config_.tracking_threshold_h, config_.top_k));
      edge.tracker().shed_to(record.shed_cap);
    } else {
      edge.tracker().set_recall_threshold(0);
    }
  }
  return record;
}

void Session::deliver(PendingSearch&& call, IterationRecord& record) {
  const double t_end = record.t_sec;
  result.retry_attempts += call.attempts > 0 ? call.attempts - 1 : 0;
  result.duplicates_discarded += call.duplicates;
  if (call.succeeded &&
      static_cast<std::int64_t>(call.sequence) > last_loaded_sequence_) {
    // The paper reloads T wholesale; the edge kept tracking the old set in
    // the meantime.
    last_loaded_sequence_ = static_cast<std::int64_t>(call.sequence);
    const std::size_t shed_cap = record.shed_cap;
    if (shed_cap > 0 && call.correlation_set.size() > shed_cap) {
      // Deliveries issued before shedding kicked in still carry the full
      // top-k set; truncate to the active cap.
      call.correlation_set.resize(shed_cap);
      ++result.robust.shed_loads;
    }
    edge.tracker().load(std::move(call.correlation_set));
    record.set_loaded = true;
    record.pa_on_load = edge.tracker().anomaly_probability();
    const double initial_sec = call.delta_ec + call.delta_cs + call.delta_ce;
    initial_slo_->observe(initial_sec);
    if (flight_ != nullptr && initial_sec > initial_slo_->spec().budget_sec) {
      flight_->log(obs::FlightEventType::kSloMiss, "initial_response", t_end,
                   call.trace.trace_id, initial_sec,
                   initial_slo_->spec().budget_sec);
    }
    if (!first_round_trip_recorded_) {
      result.timings.delta_ec_sec = call.delta_ec;
      result.timings.delta_cs_sec = call.delta_cs;
      result.timings.delta_ce_sec = call.delta_ce;
      result.timings.delta_initial_sec = initial_sec;
      first_round_trip_recorded_ = true;
    }
    ++result.cloud_calls;
  } else if (call.succeeded) {
    // Stale success: with several uplink workers an older search can
    // complete after a newer set already loaded.  The round trip itself
    // succeeded — count the call, discard the payload.  (The batch loop
    // holds one call at a time, so its sequences never arrive stale.)
    ++result.cloud_calls;
  } else {
    // Retries exhausted: degrade — keep tracking whatever set is loaded
    // and re-attempt on the next iteration that wants a cloud call.
    record.degraded = true;
    result.degraded = true;
    ++result.failed_cloud_calls;
    if (pipeline_.metrics_.degraded_windows != nullptr) {
      pipeline_.metrics_.degraded_windows->increment();
    }
  }
}

bool Session::track(std::span<const double> filtered, std::size_t outstanding,
                    std::size_t max_outstanding,
                    const obs::TraceContext& window, IterationRecord& record) {
  const double t_end = record.t_sec;
  stage_stuck_ = false;
  // "The previous set of sampled signals is transmitted to the cloud ...
  // while doing real-time signal tracking at the edge in parallel."  An
  // open breaker turns the call away at zero cost.
  auto admit_call = [&] {
    if (breaker_ && !breaker_->allow(t_end)) {
      record.breaker_rejected = true;
      if (tracer_ != nullptr) {
        tracer_->record_sim("breaker_reject", "robust", t_end, t_end,
                            window.parent_span, window.trace_id);
      }
      if (flight_ != nullptr) {
        flight_->log(obs::FlightEventType::kShed, "breaker_reject", t_end,
                     window.trace_id);
      }
      return false;
    }
    return true;
  };

  if (controller_ && controller_->critical()) {
    // CRITICAL: tracking is suspended; serve the last-known P_A with the
    // explicit stale flag and wait out the hold.
    record.robust_critical = true;
    record.anomaly_probability = last_pa_;
    ++result.robust.critical_windows;
    return false;
  }
  if (quality_ && record.quality != robust::QualityVerdict::kGood) {
    // Quality-gated window: the FIR consumed it (stream continuity) but it
    // must not reach tracking or P_A — an electrode pop would evict half
    // the tracked set as "dissimilar".
    record.anomaly_probability = last_pa_;
    return false;
  }
  if (!edge.tracker().loaded()) {
    // Cold start: the first window triggers the initial MDB search.
    return outstanding == 0 && admit_call();
  }

  EMAP_CRASH_POINT(crashpoints_, "pipeline_tracker_step");
  const TrackStepResult step = edge.tracker().step(filtered);
  record.tracked = true;
  record.anomaly_probability = step.anomaly_probability;
  record.tracked_before = step.tracked_before;
  record.tracked_after = step.tracked_after;
  record.removed_dissimilar = step.removed_dissimilar;
  record.removed_exhausted = step.removed_exhausted;
  record.abs_ops = step.abs_ops;
  const sim::DeviceProfile& device = pipeline_.edge_device_;
  record.track_device_sec =
      device.seconds_for_abs(static_cast<double>(step.abs_ops)) +
      device.per_signal_overhead_sec *
          static_cast<double>(step.tracked_before);
  total_track_sec_ += record.track_device_sec;
  edge_slo_->observe(record.track_device_sec);
  if (flight_ != nullptr &&
      record.track_device_sec > edge_slo_->spec().budget_sec) {
    flight_->log(obs::FlightEventType::kSloMiss, "edge_iteration", t_end,
                 window.trace_id, record.track_device_sec,
                 edge_slo_->spec().budget_sec);
  }
  result.timings.max_track_sec =
      std::max(result.timings.max_track_sec, record.track_device_sec);
  ++track_steps_;
  last_pa_ = step.anomaly_probability;
  if (watchdog_) {
    stage_stuck_ = watchdog_->check_stage(record.track_device_sec);
  }
  if (controller_ && controller_->defer_flushes()) {
    // Non-essential telemetry deferred while degraded; the latency
    // histogram catches up once the controller returns to NOMINAL.
    deferred_track_obs_.push_back(record.track_device_sec);
    ++result.robust.deferred_flushes;
  } else if (pipeline_.metrics_.track_step != nullptr) {
    pipeline_.metrics_.track_step->observe(record.track_device_sec);
  }
  if (tracer_ != nullptr) {
    tracer_->record_sim("edge-track", "edge-track", t_end,
                        t_end + record.track_device_sec, window.parent_span,
                        window.trace_id);
    tracer_->record_sim("prediction", "prediction",
                        t_end + record.track_device_sec,
                        t_end + record.track_device_sec + 1e-3,
                        window.parent_span, window.trace_id);
  }
  return step.cloud_call_needed && outstanding < max_outstanding &&
         admit_call();
}

void Session::feedback(const IterationRecord& record, double queue_pressure,
                       const obs::TraceContext& window) {
  const double t_end = record.t_sec;
  if (controller_) {
    robust::WindowSignal signal;
    signal.window_index = record.window_index;
    signal.t_sec = t_end;
    signal.burn_rate = edge_slo_->burn_rate();
    signal.stage_stuck = stage_stuck_;
    signal.queue_pressure = queue_pressure;
    if (record.tracked) {
      const obs::SloSpec& spec = edge_slo_->spec();
      signal.deadline_miss = record.track_device_sec > spec.budget_sec;
      signal.near_miss = !signal.deadline_miss &&
                         record.track_device_sec >
                             spec.near_miss_fraction * spec.budget_sec;
    } else {
      signal.no_observation = true;
    }
    const robust::DegradeState state_before = controller_->state();
    controller_->observe_window(signal);
    const robust::DegradeState state_after = controller_->state();
    if (flight_ != nullptr && state_after != state_before) {
      flight_->log(obs::FlightEventType::kRobustTransition,
                   (std::string(robust::degrade_state_name(state_before)) +
                    "_to_" + robust::degrade_state_name(state_after))
                       .c_str(),
                   t_end, window.trace_id);
      // A watchdog trip that forces CRITICAL is exactly the moment the
      // flight recorder exists for — the stuck step and everything that
      // led to it are still in the ring.  Latched like the breaker-open
      // and burn-page dumps, but written *after* this window's burn-page
      // check below: the stuck step usually pages the edge SLO in the same
      // window, and CRITICAL is the more severe verdict, so it should own
      // the (single) dump file.
      if (signal.stage_stuck &&
          state_after == robust::DegradeState::kCritical &&
          !watchdog_dumped_) {
        watchdog_dumped_ = true;
        watchdog_dump_pending_ = true;
      }
    }
    if (!controller_->defer_flushes()) {
      flush_deferred();
    }
  }

  // Breaker state can flip anywhere inside the window (allow() or a
  // failure recorded mid-call); detect the edge here, once per window.
  if (breaker_ && flight_ != nullptr) {
    const robust::BreakerState breaker_state = breaker_->state();
    if (breaker_state != last_breaker_state_) {
      if (breaker_state == robust::BreakerState::kOpen) {
        flight_->log(obs::FlightEventType::kBreakerOpen, "breaker_open",
                     t_end, window.trace_id);
        if (tracer_ != nullptr) {
          tracer_->record_sim("breaker_open", "robust", t_end, t_end,
                              window.parent_span, window.trace_id);
        }
        if (!breaker_dumped_) {
          breaker_dumped_ = true;
          flight_->trigger_dump("breaker_open");
        }
      } else if (breaker_state == robust::BreakerState::kClosed) {
        flight_->log(obs::FlightEventType::kBreakerClose, "breaker_close",
                     t_end, window.trace_id);
      }
      last_breaker_state_ = breaker_state;
    }
  }
  // A burning error budget is the page the flight recorder exists for:
  // dump the ring once, while the events leading up to it are still in.
  if (flight_ != nullptr && !slo_burn_paged_) {
    const bool edge_burning = !edge_slo_->healthy();
    if (edge_burning || !initial_slo_->healthy()) {
      slo_burn_paged_ = true;
      obs::SloMonitor& burning = edge_burning ? *edge_slo_ : *initial_slo_;
      flight_->log(obs::FlightEventType::kSloBurnPage,
                   burning.spec().name.c_str(), t_end, window.trace_id,
                   burning.burn_rate());
      flight_->trigger_dump("slo_burn_page");
    }
  }
  if (flight_ != nullptr && watchdog_dump_pending_) {
    watchdog_dump_pending_ = false;
    flight_->trigger_dump("watchdog_critical");
  }
}

void Session::scrape(double t_end, std::uint64_t trace_id) {
  // Scrape on the virtual clock at the window boundary; alert rules see the
  // store immediately after, attributed to this window's trace.
  if (scraper_) {
    last_window_end_sec_ = t_end;
    if (scraper_->maybe_scrape(t_end) && alert_engine_) {
      alert_engine_->evaluate(*series_store_, t_end, trace_id);
    }
  }
}

RunResult Session::finish() {
  if (track_steps_ > 0) {
    result.timings.mean_track_sec =
        total_track_sec_ / static_cast<double>(track_steps_);
  }
  result.anomaly_predicted = edge.predictor().anomaly_predicted();
  result.first_alarm_sec = edge.predictor().first_alarm_sec();
  // A run shorter than one scrape interval still exports one sample per
  // series (otherwise short smoke runs produce an empty file).
  if (scraper_ && series_store_->scrapes() == 0) {
    scraper_->scrape_now(last_window_end_sec_);
    if (alert_engine_) {
      alert_engine_->evaluate(*series_store_, last_window_end_sec_, 0);
    }
  }
  result.slo = {edge_slo_->summary(), initial_slo_->summary()};
  flush_deferred();
  if (controller_) {
    result.robust.degrade = controller_->summary();
    if (tracer_ != nullptr) {
      for (const auto& transition : controller_->transitions()) {
        // Attribute the transition to the window whose feedback caused it
        // (transitions land at window completion instants, t_sec = w + 1).
        const std::uint64_t transition_trace =
            transition.t_sec >= 1.0
                ? window_trace(
                      static_cast<std::uint64_t>(transition.t_sec - 1.0))
                : 0;
        tracer_->record_sim(
            std::string("robust_") +
                robust::degrade_state_name(transition.from) + "_to_" +
                robust::degrade_state_name(transition.to),
            "robust", transition.t_sec, transition.t_sec, 0,
            transition_trace);
      }
    }
  }
  if (breaker_) {
    result.robust.breaker = breaker_->summary();
  }
  // Fold in pre-crash counts a restored snapshot carried (zeros otherwise).
  result.robust.quality = quality_total();
  result.robust.watchdog_trips = watchdog_total();
  if (tracer_ != nullptr) {
    // The legacy Fig. 9 timeline is a projection of the span log.
    result.trace = obs::timeline_view(*tracer_);
  }
  return std::move(result);
}

void Session::flush_deferred() {
  if (pipeline_.metrics_.track_step != nullptr) {
    for (const double observation : deferred_track_obs_) {
      pipeline_.metrics_.track_step->observe(observation);
    }
  }
  deferred_track_obs_.clear();
}

robust::QualitySummary Session::quality_total() const {
  robust::QualitySummary total =
      quality_ ? quality_->summary() : robust::QualitySummary{};
  total.assessed += quality_base_.assessed;
  total.good += quality_base_.good;
  total.nan += quality_base_.nan;
  total.flatline += quality_base_.flatline;
  total.saturated += quality_base_.saturated;
  total.artifact += quality_base_.artifact;
  return total;
}

std::size_t Session::watchdog_total() const {
  return watchdog_trips_base_ + (watchdog_ ? watchdog_->trips() : 0);
}

}  // namespace emap::core
