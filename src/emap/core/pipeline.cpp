#include "emap/core/pipeline.hpp"

#include <optional>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/core/session.hpp"
#include "emap/obs/profiler.hpp"

namespace emap::core {

robust::TrackedSignalState to_signal_state(const TrackedSignal& signal) {
  robust::TrackedSignalState state;
  state.set_id = signal.set_id;
  state.omega = signal.omega;
  state.beta = static_cast<std::uint64_t>(signal.beta);
  state.anomalous = signal.anomalous;
  state.class_tag = signal.class_tag;
  state.samples = signal.samples;
  return state;
}

TrackedSignal from_signal_state(robust::TrackedSignalState&& state) {
  TrackedSignal signal;
  signal.set_id = state.set_id;
  signal.omega = state.omega;
  signal.beta = static_cast<std::size_t>(state.beta);
  signal.anomalous = state.anomalous;
  signal.class_tag = state.class_tag;
  signal.samples = std::move(state.samples);
  return signal;
}

robust::PendingCallCheckpoint to_call_checkpoint(const PendingSearch& call) {
  robust::PendingCallCheckpoint out;
  out.ready_at_sec = call.ready_at_sec;
  out.delta_ec = call.delta_ec;
  out.delta_cs = call.delta_cs;
  out.delta_ce = call.delta_ce;
  out.sequence = call.sequence;
  out.attempts = call.attempts;
  out.duplicates = call.duplicates;
  out.succeeded = call.succeeded;
  out.trace_id = call.trace.trace_id;
  out.parent_span = call.trace.parent_span;
  out.correlation_set.reserve(call.correlation_set.size());
  for (const TrackedSignal& signal : call.correlation_set) {
    out.correlation_set.push_back(to_signal_state(signal));
  }
  return out;
}

PendingSearch from_call_checkpoint(robust::PendingCallCheckpoint&& call) {
  PendingSearch out;
  out.ready_at_sec = call.ready_at_sec;
  out.delta_ec = call.delta_ec;
  out.delta_cs = call.delta_cs;
  out.delta_ce = call.delta_ce;
  out.sequence = call.sequence;
  out.attempts = static_cast<std::size_t>(call.attempts);
  out.duplicates = static_cast<std::size_t>(call.duplicates);
  out.succeeded = call.succeeded;
  out.trace.trace_id = call.trace_id;
  out.trace.parent_span = call.parent_span;
  out.correlation_set.reserve(call.correlation_set.size());
  for (robust::TrackedSignalState& signal : call.correlation_set) {
    out.correlation_set.push_back(from_signal_state(std::move(signal)));
  }
  return out;
}

const char* no_call_reason_name(NoCallReason reason) {
  switch (reason) {
    case NoCallReason::kNone:
      return "none";
    case NoCallReason::kCritical:
      return "critical";
    case NoCallReason::kQualityGated:
      return "quality_gated";
    case NoCallReason::kInFlight:
      return "in_flight";
    case NoCallReason::kNotNeeded:
      return "not_needed";
    case NoCallReason::kBreakerOpen:
      return "breaker_open";
    case NoCallReason::kStopping:
      return "stopping";
  }
  return "unknown";
}

std::vector<double> RunResult::pa_history() const {
  std::vector<double> history;
  for (const auto& record : iterations) {
    if (record.tracked) {
      history.push_back(record.anomaly_probability);
    }
  }
  return history;
}

EmapPipeline::EmapPipeline(mdb::MdbStore store, EmapConfig config,
                           PipelineOptions options)
    : config_(config),
      options_(options),
      cloud_(std::move(store), config_, options.cloud_threads),
      edge_device_(options.edge_device.value_or(sim::edge_raspberry_pi())),
      cloud_device_(sim::cloud_i7()),
      executor_(&cloud_, &config_, &cloud_device_, options_.use_transport,
                CloudCallMetrics::resolve(options_.metrics)) {
  config_.validate();
  options_.fault.validate();
  options_.retry.validate();
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *options_.metrics;
    cloud_.set_metrics(&registry);
    metrics_.windows = &registry.counter(
        "emap_pipeline_windows_total", {}, "One-second windows processed");
    metrics_.degraded_windows = &registry.counter(
        "emap_edge_degraded_windows_total", {},
        "Windows at which the edge kept a stale set after a failed call");
    metrics_.recovery_checkpoints = &registry.counter(
        "emap_recovery_checkpoints_total", {},
        "Session snapshots atomically published");
    metrics_.recovery_compactions = &registry.counter(
        "emap_recovery_checkpoint_compactions_total", {},
        "Snapshot publishes that rewrote the whole image (the rest "
        "appended one record)");
    metrics_.recovery_checkpoint_bytes = &registry.counter(
        "emap_recovery_checkpoint_bytes_total", {},
        "Bytes snapshot publishes wrote to the checkpoint file");
    metrics_.recovery_resumes = &registry.counter(
        "emap_recovery_resumes_total", {},
        "Runs resumed from a session snapshot");
    metrics_.recovery_cold_starts = &registry.counter(
        "emap_recovery_cold_start_fallbacks_total", {},
        "Resume requests that found no usable snapshot and ran cold");
    metrics_.recovery_resume_window = &registry.gauge(
        "emap_recovery_resume_window", {},
        "First window index executed by the most recent resumed run");
    metrics_.track_step = &registry.histogram(
        "emap_track_step_seconds", {},
        obs::Histogram::default_latency_bounds(),
        "Edge-device-model time of one Algorithm 2 iteration");
  }
}

RunResult EmapPipeline::run(const synth::Recording& input,
                            double stop_at_sec) {
  // The batch loop's own link: one channel, one fault schedule, at most
  // one outstanding cloud call.  Set up before the session so a fresh
  // registry lists the link families first.
  net::Channel channel(options_.platform, options_.channel);
  net::FaultInjector injector(options_.fault);
  channel.set_fault_injector(&injector);
  const net::RetryPolicy retry(options_.retry);
  if (options_.metrics != nullptr) {
    channel.set_metrics(options_.metrics);
    injector.set_metrics(options_.metrics);
  }
  std::optional<PendingSearch> pending;

  Session session(*this, input, stop_at_sec);
  EdgeNode& edge = session.edge;
  obs::Tracer& tracer = session.tracer();
  robust::CrashPointRegistry* crashpoints = session.crashpoints();

  if (std::optional<robust::SessionState> s = session.resume()) {
    injector.restore(s->injector);
    if (s->pending.has_value()) {
      pending = from_call_checkpoint(std::move(*s->pending));
    }
  }

  for (std::size_t w = session.first_window(); session.monitors(w); ++w) {
    EMAP_PROFILE_SCOPE("pipeline_window");
    EMAP_CRASH_POINT(crashpoints, "pipeline_window_start");
    const obs::TraceContext window = session.open_window(w);
    const std::vector<double> filtered =
        session.filter(session.raw_window(w));
    IterationRecord record =
        session.begin_window(w, edge.last_quality().verdict);
    const double t_end = record.t_sec;

    if (pending && pending->ready_at_sec <= t_end) {
      session.deliver(std::move(*pending), record);
      pending.reset();
    }
    if (session.track(filtered, pending ? 1 : 0, 1, window, record)) {
      EMAP_CRASH_POINT(crashpoints, "pipeline_pre_cloud_call");
      pending = executor_.issue(static_cast<std::uint32_t>(w), filtered,
                                t_end, channel, retry, tracer,
                                session.breaker(), window);
      EMAP_CRASH_POINT(crashpoints, "pipeline_post_cloud_call");
      record.cloud_call_issued = true;
    }
    if (record.tracked &&
        record.tracked_after >= config_.predict_min_support) {
      edge.predictor().observe(record.anomaly_probability, t_end);
    }
    record.anomaly_predicted = edge.predictor().anomaly_predicted();
    session.feedback(record, 0.0);
    session.end_window(std::move(record));
    EMAP_CRASH_POINT(crashpoints, "pipeline_window_end");
    // Snapshot at every window boundary.
    if (options_.recovery.enabled()) {
      robust::SessionState s = session.capture(w + 1);
      if (pending.has_value()) {
        s.pending = to_call_checkpoint(*pending);
      }
      s.injector = injector.save();
      session.publish(std::move(s));
    }
    if (options_.stop_on_alarm && edge.predictor().anomaly_predicted()) {
      break;
    }
  }
  return session.finish();
}

}  // namespace emap::core
