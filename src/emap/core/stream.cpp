#include "emap/core/stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "emap/common/bounded_queue.hpp"
#include "emap/common/error.hpp"
#include "emap/core/session.hpp"
#include "emap/robust/crashpoint.hpp"

namespace emap::core {

namespace {

/// acquire → filter: one raw input window plus its causal identity.
struct RawItem {
  std::size_t window_index = 0;
  obs::TraceContext trace{};
  std::vector<double> raw;
};

/// filter → track: the filtered window plus the quality verdict.
struct FilteredItem {
  std::size_t window_index = 0;
  obs::TraceContext trace{};
  std::vector<double> filtered;
  robust::QualityVerdict quality = robust::QualityVerdict::kGood;
};

/// track → uplink worker: one cloud-call job.
struct UplinkJob {
  std::uint32_t sequence = 0;
  double t_issue_sec = 0.0;
  obs::TraceContext trace{};
  std::vector<double> filtered;
};

/// track → predict: the finished window record.
struct OutcomeItem {
  IterationRecord record{};
  bool supports_predict = false;
};

/// One-shot injected fault, armed per StageFaultSpec.
struct FaultArm {
  StageFaultSpec spec;
  std::atomic<bool> fired{false};
};

}  // namespace

void StreamOptions::validate() const {
  require(stage_threads >= 1,
          "StreamOptions: stage_threads must be at least 1");
  require(queue_capacity >= 2,
          "StreamOptions: queue_capacity must be at least 2");
  supervisor.validate();
  for (const StageFaultSpec& fault : faults) {
    require(!fault.stage.empty(), "StreamOptions: fault stage name empty");
    require(fault.at_cursor >= 1,
            "StreamOptions: fault at_cursor is 1-based");
    require(fault.stall_max_sec > 0.0,
            "StreamOptions: fault stall_max_sec must be positive");
  }
}

StreamPipeline::StreamPipeline(EmapPipeline& pipeline, StreamOptions options)
    : pipeline_(pipeline), options_(options) {
  options_.validate();
  require(!pipeline_.options_.recovery.enabled(),
          "StreamPipeline: checkpoint/resume runs only on the batch loop "
          "(PipelineOptions::recovery must be off)");
}

RunResult StreamPipeline::run(const synth::Recording& input,
                              double stop_at_sec) {
  EmapPipeline& p = pipeline_;
  const PipelineOptions& opts = p.options_;
  Session session(p, input, stop_at_sec);
  session.result.robust.streamed = true;
  EdgeNode& edge = session.edge;
  obs::Tracer& tracer = session.tracer();
  robust::CrashPointRegistry* crashpoints = session.crashpoints();
  robust::CircuitBreaker& breaker = session.breaker();

  const std::size_t workers = options_.stage_threads;

  // ---- The stage graph. ----
  BoundedQueue<RawItem> q_raw(options_.queue_capacity);
  BoundedQueue<FilteredItem> q_filtered(options_.queue_capacity);
  BoundedQueue<UplinkJob> q_uplink(options_.queue_capacity);
  BoundedQueue<PendingSearch> q_deliver(options_.queue_capacity);
  BoundedQueue<OutcomeItem> q_outcome(options_.queue_capacity);
  auto close_all_queues = [&] {
    q_raw.close();
    q_filtered.close();
    q_uplink.close();
    q_deliver.close();
    q_outcome.close();
  };

  obs::Gauge* depth_raw = nullptr;
  obs::Gauge* depth_filtered = nullptr;
  obs::Gauge* depth_uplink = nullptr;
  obs::Gauge* depth_deliver = nullptr;
  obs::Gauge* depth_outcome = nullptr;
  if (opts.metrics != nullptr) {
    auto depth_gauge = [&](const char* name) {
      return &opts.metrics->gauge("emap_stage_queue_depth",
                                  {{"queue", name}},
                                  "Instantaneous stage-queue occupancy");
    };
    depth_raw = depth_gauge("raw");
    depth_filtered = depth_gauge("filtered");
    depth_uplink = depth_gauge("uplink");
    depth_deliver = depth_gauge("deliver");
    depth_outcome = depth_gauge("outcome");
  }

  std::atomic<bool> stop{false};

  // Injected stage faults (soak suite): each arm fires once.
  std::vector<std::unique_ptr<FaultArm>> arms;
  arms.reserve(options_.faults.size());
  for (const StageFaultSpec& spec : options_.faults) {
    auto arm = std::make_unique<FaultArm>();
    arm->spec = spec;
    arms.push_back(std::move(arm));
  }
  auto maybe_fault = [&](const std::string& stage, std::uint64_t cursor,
                         robust::StageHealth& health) {
    for (auto& arm : arms) {
      if (arm->spec.at_cursor != cursor || arm->spec.stage != stage) {
        continue;
      }
      if (arm->fired.exchange(true, std::memory_order_acq_rel)) {
        continue;
      }
      if (arm->spec.kind == StageFaultSpec::Kind::kCrash) {
        throw std::runtime_error("injected stage crash: " + stage);
      }
      // Stall: stop heartbeating while not idle.  The supervisor's monitor
      // declares the stall and requests an abort; the caller returns at its
      // next abort check and the body restarts.
      const auto started = std::chrono::steady_clock::now();
      while (!health.abort_requested()) {
        const double waited =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count();
        if (waited >= arm->spec.stall_max_sec) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  };

  // ---- Per-stage state (each struct is confined to its stage thread and
  // survives supervisor restarts; read from the main thread after join).
  struct FilterState {
    std::uint64_t processed = 0;
  } filter_state;

  struct TrackState {
    /// Atomic: the supervisor's failure handler reads it from whichever
    /// thread gives up.
    std::atomic<std::uint64_t> processed{0};
    std::uint64_t issued = 0;    ///< uplink jobs enqueued
    std::uint64_t applied = 0;   ///< deliveries applied (or discarded)
    std::vector<PendingSearch> completed;  ///< popped, not yet ready
    /// Timestamped queue-pressure samples inside the debounce window.
    std::vector<std::pair<double, double>> pressure_samples;
  } ts;

  struct PredictState {
    std::uint64_t processed = 0;
  } ps;

  // Uplink workers: each owns its Channel + FaultInjector fork, so the
  // per-worker fault schedule is a deterministic function of (options,
  // worker index) regardless of thread interleaving.
  struct WorkerState {
    WorkerState(const PipelineOptions& opts, std::size_t index)
        : injector([&] {
            net::FaultOptions forked = opts.fault;
            forked.seed ^= 0x9e3779b97f4a7c15ULL * (index + 1);
            return forked;
          }()),
          channel(opts.platform, opts.channel),
          retry(opts.retry) {
      channel.set_fault_injector(&injector);
    }
    net::FaultInjector injector;
    net::Channel channel;
    net::RetryPolicy retry;
    std::uint64_t processed = 0;
    /// The job this worker is holding right now.  Survives a crash of the
    /// stage body: the restarted incarnation reports it as a failed call
    /// so the track stage's outstanding accounting settles (see below).
    struct {
      bool active = false;
      std::uint32_t sequence = 0;
      double t_issue_sec = 0.0;
      obs::TraceContext trace{};
    } in_flight;
  };
  std::vector<std::unique_ptr<WorkerState>> worker_states;
  for (std::size_t k = 0; k < workers; ++k) {
    auto state = std::make_unique<WorkerState>(opts, k);
    if (opts.metrics != nullptr) {
      state->channel.set_metrics(opts.metrics);
      state->injector.set_metrics(opts.metrics);
    }
    worker_states.push_back(std::move(state));
  }
  std::atomic<std::size_t> active_workers{workers};

  robust::StageSupervisor supervisor(options_.supervisor, opts.metrics);
  supervisor.set_failure_handler([&](const std::string& stage) {
    // A stage out of restart budget ends the run: force CRITICAL (the
    // operator-visible verdict), stop the source, and close every queue so
    // the rest of the graph drains and unwinds.
    session.controller().force_critical(ts.processed.load(), 0.0);
    stop.store(true, std::memory_order_release);
    close_all_queues();
    (void)stage;
  });

  // ---- Stage bodies. ----

  auto acquire_body = [&](robust::StageHealth& health) {
    health.set_idle(false);
    // A restarted incarnation resumes at its heartbeat cursor.
    for (auto w = static_cast<std::size_t>(health.resume_cursor());
         session.monitors(w); ++w) {
      if (stop.load(std::memory_order_acquire) || health.abort_requested()) {
        break;
      }
      maybe_fault("acquire", w + 1, health);
      if (health.abort_requested()) {
        return;  // restart resumes from resume_cursor()
      }
      EMAP_CRASH_POINT(crashpoints, "pipeline_window_start");
      RawItem item;
      item.window_index = w;
      item.trace = session.open_window(w);
      const std::span<const double> raw = session.raw_window(w);
      item.raw.assign(raw.begin(), raw.end());
      health.set_idle(true);  // a blocked push is backpressure, not a stall
      const bool pushed = q_raw.push(std::move(item));
      health.set_idle(false);
      if (!pushed) {
        break;
      }
      health.heartbeat(w + 1);
    }
    health.set_idle(true);
    q_raw.close();
  };

  auto filter_body = [&](robust::StageHealth& health) {
    for (;;) {
      health.set_idle(true);
      std::optional<RawItem> item = q_raw.pop();
      health.set_idle(false);
      if (!item.has_value()) {
        break;
      }
      if (health.abort_requested()) {
        return;
      }
      ++filter_state.processed;
      maybe_fault("filter", filter_state.processed, health);
      if (health.abort_requested()) {
        return;
      }
      FilteredItem out;
      out.window_index = item->window_index;
      out.trace = item->trace;
      out.filtered = session.filter(item->raw);
      out.quality = edge.last_quality().verdict;
      health.heartbeat(filter_state.processed);
      health.set_idle(true);
      const bool pushed = q_filtered.push(std::move(out));
      health.set_idle(false);
      if (!pushed) {
        break;
      }
    }
    health.set_idle(true);
    q_filtered.close();
  };

  // Queue pressure for the degradation controller, sampled once per track
  // window (track thread only).
  auto sustained_pressure = [&] {
    double pressure = 0.0;
    auto fold = [&pressure](std::size_t depth, std::size_t capacity) {
      pressure = std::max(
          pressure, static_cast<double>(depth) /
                        static_cast<double>(capacity));
    };
    // The ingest queues (q_raw, q_filtered) are deliberately excluded:
    // the virtual-speed source saturates everything upstream of the
    // wall-clock bottleneck by design (blocking backpressure IS the
    // pacing), so their depth measures how far the simulation outruns
    // real time, not overload.  Pressure watches the cloud path and
    // the egress consumer, whose backlog is always genuine.
    fold(q_uplink.depth(), q_uplink.capacity());
    fold(q_deliver.depth(), q_deliver.capacity());
    fold(q_outcome.depth(), q_outcome.capacity());
    // Debounce on WALL time: at virtual speed the producer fills a
    // queue in microseconds, so a single descheduling of a consumer
    // thread reads as a full queue for many windows.  Report the
    // MINIMUM instantaneous pressure over the last quarter second of
    // wall clock — only saturation that persists that long (a
    // genuinely wedged or lagging consumer, e.g. a supervisor-level
    // stall) registers as pressure for the degrade controller.
    constexpr double kPressureSustainSec = 0.25;
    const double now_wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    ts.pressure_samples.emplace_back(now_wall, std::min(pressure, 1.0));
    // Prune, but keep ONE sample at or before the window start so we
    // can tell whether the window is fully covered by history.
    std::size_t keep_from = 0;
    while (keep_from + 1 < ts.pressure_samples.size() &&
           ts.pressure_samples[keep_from + 1].first <=
               now_wall - kPressureSustainSec) {
      ++keep_from;
    }
    ts.pressure_samples.erase(ts.pressure_samples.begin(),
                              ts.pressure_samples.begin() +
                                  static_cast<std::ptrdiff_t>(keep_from));
    if (ts.pressure_samples.front().first >
        now_wall - kPressureSustainSec) {
      // Not enough history yet to prove the backlog persisted.
      pressure = 0.0;
    } else {
      pressure = 1.0;
      for (const auto& [when, sample] : ts.pressure_samples) {
        pressure = std::min(pressure, sample);
      }
    }
    return pressure;
  };

  auto track_body = [&](robust::StageHealth& health) {
    for (;;) {
      health.set_idle(true);
      std::optional<FilteredItem> item = q_filtered.pop();
      health.set_idle(false);
      if (!item.has_value()) {
        break;
      }
      if (health.abort_requested()) {
        return;
      }
      ++ts.processed;
      maybe_fault("track", ts.processed.load(), health);
      if (health.abort_requested()) {
        return;
      }
      const std::size_t w = item->window_index;
      const obs::TraceContext window = item->trace;
      IterationRecord record = session.begin_window(w, item->quality);
      const double t_end = record.t_sec;

      // Collect finished cloud calls and deliver every one whose virtual
      // ready time has arrived, oldest sequence first (the batch loop has
      // at most one outstanding; here up to `workers` overlap).
      while (std::optional<PendingSearch> done = q_deliver.try_pop()) {
        ts.completed.push_back(std::move(*done));
      }
      if (!edge.tracker().loaded() && ts.completed.empty() &&
          ts.issued > ts.applied) {
        // Cold start with the initial search still in flight: nothing can
        // be tracked until it lands, and the free-running edge would
        // otherwise race through the whole input while the cloud computes.
        // Wait for the result (the virtual ready-time gate below still
        // decides *which window* loads it, exactly like the batch loop).
        health.set_idle(true);
        std::optional<PendingSearch> done = q_deliver.pop();
        health.set_idle(false);
        if (done.has_value()) {
          ts.completed.push_back(std::move(*done));
        }
      }
      std::sort(ts.completed.begin(), ts.completed.end(),
                [](const PendingSearch& a, const PendingSearch& b) {
                  return a.sequence < b.sequence;
                });
      for (auto it = ts.completed.begin(); it != ts.completed.end();) {
        if (it->ready_at_sec > t_end) {
          ++it;
          continue;
        }
        PendingSearch pending = std::move(*it);
        it = ts.completed.erase(it);
        ++ts.applied;
        session.deliver(std::move(pending), record);
      }

      if (session.track(item->filtered, ts.issued - ts.applied, workers,
                        window, record)) {
        EMAP_CRASH_POINT(crashpoints, "pipeline_pre_cloud_call");
        UplinkJob job;
        job.sequence = static_cast<std::uint32_t>(w);
        job.t_issue_sec = t_end;
        job.trace = window;
        job.filtered = item->filtered;
        health.set_idle(true);
        const bool pushed = q_uplink.push(std::move(job));
        health.set_idle(false);
        if (!pushed) {
          record.no_call_reason = NoCallReason::kStopping;
        } else {
          ++ts.issued;
          record.cloud_call_issued = true;
        }
      }

      session.feedback(record, sustained_pressure());
      if (depth_raw != nullptr) {
        depth_raw->set(static_cast<double>(q_raw.depth()));
        depth_filtered->set(static_cast<double>(q_filtered.depth()));
        depth_uplink->set(static_cast<double>(q_uplink.depth()));
        depth_deliver->set(static_cast<double>(q_deliver.depth()));
        depth_outcome->set(static_cast<double>(q_outcome.depth()));
      }

      OutcomeItem out;
      out.supports_predict =
          record.tracked &&
          record.tracked_after >= p.config_.predict_min_support;
      out.record = std::move(record);
      health.heartbeat(ts.processed.load());
      health.set_idle(true);
      const bool pushed = q_outcome.push(std::move(out));
      health.set_idle(false);
      if (!pushed) {
        break;
      }
    }
    // Input drained: no more jobs will be issued.  Wait out in-flight
    // calls, then release the predict stage.  Results arriving after the
    // final window are discarded, like the batch loop's still-pending
    // search at run end.
    health.set_idle(true);
    q_uplink.close();
    while (ts.applied < ts.issued) {
      std::optional<PendingSearch> done = q_deliver.pop();
      if (!done.has_value()) {
        break;  // a worker died with the call in flight
      }
      ++ts.applied;
    }
    q_outcome.close();
  };

  auto predict_body = [&](robust::StageHealth& health) {
    for (;;) {
      health.set_idle(true);
      std::optional<OutcomeItem> item = q_outcome.pop();
      health.set_idle(false);
      if (!item.has_value()) {
        break;
      }
      if (health.abort_requested()) {
        return;
      }
      ++ps.processed;
      maybe_fault("predict", ps.processed, health);
      if (health.abort_requested()) {
        return;
      }
      if (item->supports_predict) {
        edge.predictor().observe(item->record.anomaly_probability,
                                 item->record.t_sec);
      }
      item->record.anomaly_predicted = edge.predictor().anomaly_predicted();
      session.end_window(std::move(item->record));
      EMAP_CRASH_POINT(crashpoints, "pipeline_window_end");
      if (opts.stop_on_alarm && edge.predictor().anomaly_predicted()) {
        stop.store(true, std::memory_order_release);
      }
      health.heartbeat(ps.processed);
    }
    health.set_idle(true);
  };

  auto make_worker_body = [&](std::size_t k) {
    return [&, k](robust::StageHealth& health) {
      WorkerState& me = *worker_states[k];
      const std::string name = "uplink" + std::to_string(k);
      if (me.in_flight.active) {
        // A previous incarnation died holding this job.  Deliver it as a
        // failed call (a degraded window, exactly like an exhausted
        // retry): without this, the issued/applied ledger never settles,
        // and a lost *cold-start* call would leave the track stage
        // waiting forever on a result that cannot arrive.
        PendingSearch lost;
        lost.sequence = me.in_flight.sequence;
        lost.ready_at_sec = me.in_flight.t_issue_sec;
        lost.succeeded = false;
        lost.trace = me.in_flight.trace;
        me.in_flight.active = false;
        health.set_idle(true);
        (void)q_deliver.push(std::move(lost));  // closed = run is ending
        health.set_idle(false);
      }
      for (;;) {
        health.set_idle(true);
        std::optional<UplinkJob> job = q_uplink.pop();
        health.set_idle(false);
        if (!job.has_value()) {
          break;
        }
        if (health.abort_requested()) {
          return;
        }
        ++me.processed;
        me.in_flight.active = true;
        me.in_flight.sequence = job->sequence;
        me.in_flight.t_issue_sec = job->t_issue_sec;
        me.in_flight.trace = job->trace;
        maybe_fault(name, me.processed, health);
        if (health.abort_requested()) {
          return;
        }
        PendingSearch pending = p.executor_.issue(
            job->sequence, job->filtered, job->t_issue_sec, me.channel,
            me.retry, tracer, breaker, job->trace);
        EMAP_CRASH_POINT(crashpoints, "pipeline_post_cloud_call");
        health.heartbeat(me.processed);
        health.set_idle(true);
        const bool delivered = q_deliver.push(std::move(pending));
        health.set_idle(false);
        me.in_flight.active = false;
        if (!delivered) {
          break;
        }
      }
      health.set_idle(true);
      if (active_workers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        q_deliver.close();
      }
    };
  };

  supervisor.spawn("predict", predict_body);
  supervisor.spawn("track", track_body);
  for (std::size_t k = 0; k < workers; ++k) {
    supervisor.spawn("uplink" + std::to_string(k), make_worker_body(k));
  }
  supervisor.spawn("filter", filter_body);
  supervisor.spawn("acquire", acquire_body);

  // The join IS the wait: every stage exits when its input queue closes
  // and drains (or on supervisor intervention), and the close cascades
  // from the acquire stage down the graph.
  supervisor.join_all();

  // ---- Epilogue (single-threaded again; thread joins order everything
  // the stages wrote). ----

  RunResult result = session.finish();
  result.robust.supervisor_stalls = supervisor.stalls_detected();
  result.robust.supervisor_restarts = supervisor.restarts();
  result.robust.supervisor_crashes = supervisor.crashes();
  for (const robust::StageStats& stats : supervisor.stats()) {
    robust::StageQueueSummary row;
    row.stage = stats.name;
    row.processed = stats.processed;
    row.stalls = stats.stalls;
    row.crashes = stats.crashes;
    row.restarts = stats.restarts;
    row.failed = stats.failed;
    result.robust.stages.push_back(std::move(row));
  }
  auto queue_row = [&](const char* name, std::size_t capacity,
                       std::size_t max_depth, std::uint64_t pushed,
                       std::uint64_t popped) {
    robust::StageQueueSummary row;
    row.stage = std::string("q_") + name;
    row.processed = popped;
    row.queue = name;
    row.queue_capacity = capacity;
    row.queue_max_depth = max_depth;
    row.queue_pushed = pushed;
    result.robust.stages.push_back(std::move(row));
  };
  queue_row("raw", q_raw.capacity(), q_raw.max_depth(), q_raw.pushed(),
            q_raw.popped());
  queue_row("filtered", q_filtered.capacity(), q_filtered.max_depth(),
            q_filtered.pushed(), q_filtered.popped());
  queue_row("uplink", q_uplink.capacity(), q_uplink.max_depth(),
            q_uplink.pushed(), q_uplink.popped());
  queue_row("deliver", q_deliver.capacity(), q_deliver.max_depth(),
            q_deliver.pushed(), q_deliver.popped());
  queue_row("outcome", q_outcome.capacity(), q_outcome.max_depth(),
            q_outcome.pushed(), q_outcome.popped());
  return result;
}

}  // namespace emap::core
