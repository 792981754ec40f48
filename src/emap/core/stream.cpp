#include "emap/core/stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
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
#include "emap/robust/checkpoint.hpp"
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
  std::uint64_t trace_id = 0;
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
  require(drain_timeout_sec > 0.0,
          "StreamOptions: drain_timeout_sec must be positive");
  supervisor.validate();
  for (const StageFaultSpec& fault : faults) {
    require(!fault.stage.empty(), "StreamOptions: fault stage name empty");
    require(fault.at_cursor >= 1,
            "StreamOptions: fault at_cursor is 1-based");
    require(fault.stall_max_sec > 0.0,
            "StreamOptions: fault stall_max_sec must be positive");
  }
}

const char* scheduler_mode_name(SchedulerMode mode) {
  switch (mode) {
    case SchedulerMode::kVirtualTime:
      return "virtual";
    case SchedulerMode::kThreaded:
      return "threaded";
  }
  return "unknown";
}

const char* queue_full_policy_name(QueueFullPolicy policy) {
  switch (policy) {
    case QueueFullPolicy::kBlock:
      return "block";
    case QueueFullPolicy::kShedOldest:
      return "shed_oldest";
    case QueueFullPolicy::kDegrade:
      return "degrade";
  }
  return "unknown";
}

std::string StreamOptions::fingerprint() const {
  if (mode == SchedulerMode::kVirtualTime) {
    // Batch snapshots carry no topology label, so the batch loop keeps
    // reading (and producing) exactly the payloads it always has.
    return "";
  }
  return std::string("threaded/workers=") + std::to_string(stage_threads) +
         "/cap=" + std::to_string(queue_capacity) +
         "/policy=" + queue_full_policy_name(policy);
}

StreamPipeline::StreamPipeline(EmapPipeline& pipeline, StreamOptions options)
    : pipeline_(pipeline), options_(options) {
  options_.validate();
}

RunResult StreamPipeline::run(const synth::Recording& input) {
  if (options_.mode == SchedulerMode::kVirtualTime) {
    // The deterministic scheduler IS the batch loop: bit-identity with
    // every existing replay / checkpoint / equivalence guarantee holds by
    // construction, not by re-implementation.
    return pipeline_.run(input);
  }
  return run_threaded(input);
}

RunResult StreamPipeline::run_threaded(const synth::Recording& input) {
  EmapPipeline& p = pipeline_;
  const PipelineOptions& opts = p.options_;
  Session session(p, input, opts.stop_at_sec);
  session.result.robust.streamed = true;
  EdgeNode& edge = session.edge;
  obs::Tracer* tracer = session.tracer();
  obs::FlightRecorder* flight = session.flight();
  robust::CrashPointRegistry* crashpoints = session.crashpoints();
  robust::CircuitBreaker* breaker = session.breaker();

  // ---- Durable streaming (robust/checkpoint.hpp): quiesce-barrier
  // snapshots on the acquire cadence, emergency / clean-shutdown snapshots
  // in the epilogue, resume before the stage graph spawns.  All of the
  // quiesce machinery is gated on `durable`, so a run without recovery
  // keeps the original blocking pops untouched. ----
  const robust::RecoveryOptions& recovery = opts.recovery;
  robust::RecoverySummary& recovery_summary = session.result.robust.recovery;
  const bool durable = recovery.enabled();
  const std::string stream_fp = options_.fingerprint();
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

  const QueueFullPolicy policy = options_.policy;
  std::atomic<std::uint64_t> dropped_newest{0};
  // Applies the configured backpressure policy to one push.  Returns false
  // when the item was not enqueued (queue closed, or kDegrade dropped it).
  // Only the processing queues (q_filtered, q_outcome) are governed by
  // the policy; the source queue and the cloud-call queues always block
  // (see the comments at their push sites).
  auto push_with_policy = [&](auto& queue, auto item) -> bool {
    switch (policy) {
      case QueueFullPolicy::kBlock:
        return queue.push(std::move(item));
      case QueueFullPolicy::kShedOldest:
        return queue.push_shed_oldest(std::move(item));
      case QueueFullPolicy::kDegrade: {
        if (queue.try_push(item)) {
          return true;
        }
        if (!queue.closed()) {
          dropped_newest.fetch_add(1, std::memory_order_relaxed);
        }
        return false;
      }
    }
    return false;
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
    /// Identity of every issued-not-yet-applied job (sequence → issue
    /// time + trace), so an unsettled checkpoint drain can name the
    /// in-flight windows it records as to-replay entries.  Maintained
    /// only when durable checkpointing is on.
    std::map<std::uint32_t, std::pair<double, obs::TraceContext>>
        outstanding_jobs;
    /// Timestamped queue-pressure samples inside the debounce window.
    std::vector<std::pair<double, double>> pressure_samples;
    /// Downstream shed/drop total at the previous window (loss detector).
    std::uint64_t last_loss_total = 0;
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
          channel(opts.platform, opts.channel,
                  42 + static_cast<std::uint64_t>(index)),
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
    /// Checkpoint mailbox: the injector/channel draw positions as of the
    /// last finished job, republished at every job boundary.  The quiesce
    /// coordinator reads the mailbox even when this worker is mid-search
    /// (an expired drain): the unfinished job becomes a to-replay entry
    /// and the cursors here are consistent with the jobs that actually
    /// completed, so a resumed worker replays a coherent fault schedule.
    struct Mailbox {
      std::mutex m;
      net::FaultInjectorState injector{};
      RngState channel_rng{};
    } mailbox;
  };
  std::vector<std::unique_ptr<WorkerState>> worker_states;
  for (std::size_t k = 0; k < workers; ++k) {
    auto state = std::make_unique<WorkerState>(opts, k);
    if (opts.metrics != nullptr) {
      state->channel.set_metrics(opts.metrics);
      state->injector.set_metrics(opts.metrics);
    }
    state->channel.set_flight_recorder(flight);
    state->mailbox.injector = state->injector.save();
    state->mailbox.channel_rng = state->channel.save_rng();
    worker_states.push_back(std::move(state));
  }
  std::atomic<std::size_t> active_workers{workers};

  // ---- Resume (single-threaded: the stage graph has not spawned yet).
  // The session restores the shared state; here the worker cursors and the
  // settled ledger: snapshot-completed calls are re-delivered from here,
  // and every to-replay entry lands as a failed call at its issue time —
  // the documented ≤1-lost-window-per-stage-death degradation. ----
  if (std::optional<robust::SessionState> s =
          session.resume(stream_fp, workers)) {
    for (std::size_t k = 0; k < workers; ++k) {
      WorkerState& ws = *worker_states[k];
      ws.injector.restore(s->workers[k].injector);
      ws.channel.restore_rng(s->workers[k].channel_rng);
      ws.mailbox.injector = s->workers[k].injector;
      ws.mailbox.channel_rng = s->workers[k].channel_rng;
    }
    for (robust::PendingCallCheckpoint& call : s->completed_calls) {
      PendingSearch restored = from_call_checkpoint(std::move(call));
      ts.outstanding_jobs[restored.sequence] = {restored.ready_at_sec,
                                                restored.trace};
      ts.completed.push_back(std::move(restored));
    }
    for (const robust::ReplayEntryCheckpoint& entry : s->replay) {
      PendingSearch lost;
      lost.sequence = entry.sequence;
      lost.ready_at_sec = entry.t_issue_sec;
      lost.succeeded = false;
      lost.trace = obs::TraceContext{entry.trace_id, entry.parent_span};
      ts.outstanding_jobs[lost.sequence] = {entry.t_issue_sec, lost.trace};
      ts.completed.push_back(std::move(lost));
    }
    recovery_summary.replay_redelivered = s->replay.size();
    ts.issued = s->completed_calls.size() + s->replay.size();
  }

  robust::StageSupervisor supervisor(options_.supervisor, opts.metrics,
                                     flight);
  supervisor.set_failure_handler([&](const std::string& stage) {
    // A stage out of restart budget ends the run: force CRITICAL (the
    // operator-visible verdict), stop the source, and close every queue so
    // the rest of the graph drains and unwinds.
    if (robust::DegradationController* controller = session.controller()) {
      controller->force_critical(ts.processed.load(), 0.0);
    }
    stop.store(true, std::memory_order_release);
    close_all_queues();
    (void)stage;
  });

  // ---- Checkpoint quiesce barrier (durable runs only). ----
  //
  // On cadence the acquire stage (the coordinator) stops admitting source
  // windows and raises `draining`; each consumer stage parks at the gate
  // when its park precondition holds, in topological order (filter when
  // q_raw is empty, track when the ledger settled or the drain budget
  // expired, predict and the uplink workers behind track).  The
  // coordinator captures the snapshot while it holds the gate mutex — a
  // parked stage cannot resume until the epoch advances, so everything
  // the stages wrote happens-before the capture reads it.
  constexpr std::uint64_t kNeverParked =
      std::numeric_limits<std::uint64_t>::max();
  struct QuiesceGate {
    std::mutex m;
    std::condition_variable cv;
    std::atomic<bool> draining{false};
    std::atomic<bool> drain_expired{false};
    // Guarded by m.  A stage is parked at the *current* quiesce iff its
    // recorded epoch equals `epoch`; bumping the epoch on release makes
    // every park record stale at once, so a stage slow to wake from a
    // previous quiesce can never be mistaken for parked at this one.
    std::uint64_t epoch = 0;
    std::uint64_t filter_epoch = 0;
    std::uint64_t track_epoch = 0;
    std::uint64_t predict_epoch = 0;
    std::vector<std::uint64_t> worker_epochs;
  } gate;
  gate.filter_epoch = kNeverParked;
  gate.track_epoch = kNeverParked;
  gate.predict_epoch = kNeverParked;
  gate.worker_epochs.assign(workers, kNeverParked);

  // Parks the calling stage at the barrier until the coordinator bumps
  // the epoch.  `eligible` runs under the gate mutex; when it (or the
  // draining flag, re-checked under the lock so a release cannot be
  // missed) says no, the stage returns to its pop loop and retries.
  auto try_park = [&](std::uint64_t& stage_epoch, auto eligible) {
    std::unique_lock<std::mutex> lock(gate.m);
    if (!gate.draining.load(std::memory_order_acquire) || !eligible()) {
      return;
    }
    stage_epoch = gate.epoch;
    const std::uint64_t my_epoch = gate.epoch;
    gate.cv.notify_all();
    gate.cv.wait(lock, [&] { return gate.epoch != my_epoch; });
  };

  // Drop-in replacement for BoundedQueue::pop, used only on durable runs:
  // identical blocking semantics, plus the stage visits the quiesce gate
  // whenever the coordinator is draining.  Callers already bracket the
  // pop with set_idle(true/false), so a parked stage is exempt from
  // supervisor stall verdicts just like a blocked one.
  auto pop_or_park = [&](auto& queue, auto park) {
    for (;;) {
      if (auto item = queue.try_pop()) {
        return item;
      }
      if (queue.closed()) {
        return queue.try_pop();  // drain any racing final pushes
      }
      if (gate.draining.load(std::memory_order_acquire)) {
        park();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  auto ledger_settled = [&] {
    return ts.issued - ts.applied ==
           static_cast<std::uint64_t>(ts.completed.size());
  };

  // The track stage's park routine: settle the issued/applied ledger
  // first — collect in-flight results until every outstanding call has
  // landed or the drain budget expires — then park behind the filter
  // stage.  Runs on the track thread, off the gate mutex.
  auto track_park = [&] {
    while (gate.draining.load(std::memory_order_acquire) &&
           !gate.drain_expired.load(std::memory_order_acquire) &&
           !ledger_settled()) {
      if (std::optional<PendingSearch> done = q_deliver.try_pop()) {
        ts.completed.push_back(std::move(*done));
        continue;
      }
      if (q_deliver.closed()) {
        return;  // the run is shutting down; don't park
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    try_park(gate.track_epoch, [&] {
      return gate.filter_epoch == gate.epoch &&
             (ledger_settled() ||
              gate.drain_expired.load(std::memory_order_acquire));
    });
  };

  // Captures the full session state.  Caller must guarantee quiescence:
  // either every stage is parked at the gate (cadence snapshots) or the
  // stage threads are joined (epilogue snapshots).
  auto build_session_state = [&](std::size_t next_window) {
    robust::SessionState s = session.capture(next_window);
    s.stream_fingerprint = stream_fp;
    // The batch-mode pending/injector/channel slots stay default-
    // initialised: a threaded session's calls live in the ledger and its
    // fault state per worker below.
    s.completed_calls.reserve(ts.completed.size());
    for (const PendingSearch& call : ts.completed) {
      s.completed_calls.push_back(to_call_checkpoint(call));
    }
    for (const auto& [sequence, info] : ts.outstanding_jobs) {
      bool landed = false;
      for (const PendingSearch& call : ts.completed) {
        if (call.sequence == sequence) {
          landed = true;
          break;
        }
      }
      if (landed) {
        continue;
      }
      robust::ReplayEntryCheckpoint entry;
      entry.sequence = sequence;
      entry.t_issue_sec = info.first;
      entry.trace_id = info.second.trace_id;
      entry.parent_span = info.second.parent_span;
      s.replay.push_back(entry);
    }
    s.workers.reserve(workers);
    for (std::size_t k = 0; k < workers; ++k) {
      WorkerState& ws = *worker_states[k];
      std::lock_guard<std::mutex> mailbox_lock(ws.mailbox.m);
      robust::WorkerCheckpoint wc;
      wc.injector = ws.mailbox.injector;
      wc.channel_rng = ws.mailbox.channel_rng;
      s.workers.push_back(std::move(wc));
    }
    return s;
  };

  // The coordinator: runs on the acquire thread after admitting window
  // `next_window - 1`.  Raises the gate, waits for the graph to park,
  // captures and publishes the snapshot, then releases the gate.  Any
  // supervisor intervention while the gate is up aborts the snapshot (the
  // previous one on disk stays the resume point); the next cadence tries
  // again.
  auto quiesce_and_snapshot = [&](std::size_t next_window,
                                  robust::StageHealth& health) {
    health.set_idle(true);  // coordinating is waiting, not working
    EMAP_CRASH_POINT(crashpoints, "stream_quiesce");
    const std::uint64_t interventions_before = supervisor.interventions();
    gate.drain_expired.store(false, std::memory_order_release);
    gate.draining.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(gate.m);
    auto release = [&] {
      gate.draining.store(false, std::memory_order_release);
      ++gate.epoch;
      gate.cv.notify_all();
    };
    const auto started = std::chrono::steady_clock::now();
    auto elapsed = [&] {
      return std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - started)
          .count();
    };
    // After the drain budget the unsettled ledger falls back to to-replay
    // entries and the stages park promptly; the hard bound on top exists
    // only so a wedged stage can never hold the gate forever.
    const double drain_budget = options_.drain_timeout_sec;
    const double hard_budget =
        drain_budget + std::max(5.0, drain_budget);
    bool aborted = false;
    for (;;) {
      if (supervisor.interventions() != interventions_before ||
          stop.load(std::memory_order_acquire) || q_raw.closed() ||
          q_outcome.closed() || health.abort_requested()) {
        aborted = true;  // a restart / stall / shutdown raced the quiesce
        break;
      }
      const bool stages_parked = gate.filter_epoch == gate.epoch &&
                                 gate.track_epoch == gate.epoch &&
                                 gate.predict_epoch == gate.epoch;
      std::size_t workers_parked = 0;
      for (const std::uint64_t worker_epoch : gate.worker_epochs) {
        if (worker_epoch == gate.epoch) {
          ++workers_parked;
        }
      }
      const bool workers_done =
          workers_parked == workers ||
          gate.drain_expired.load(std::memory_order_acquire);
      if (stages_parked && workers_done) {
        break;
      }
      if (elapsed() >= hard_budget) {
        aborted = true;
        break;
      }
      if (elapsed() >= drain_budget) {
        gate.drain_expired.store(true, std::memory_order_release);
      }
      gate.cv.wait_for(lock, std::chrono::milliseconds(5));
    }
    if (!aborted && supervisor.interventions() != interventions_before) {
      aborted = true;  // an intervention slipped in as the last stage parked
    }
    if (aborted) {
      ++recovery_summary.snapshot_aborts;
      release();
      return;
    }
    try {
      EMAP_CRASH_POINT(crashpoints, "stream_drain");
      if (gate.drain_expired.load(std::memory_order_acquire)) {
        ++recovery_summary.drain_timeouts;
      }
      session.publish(build_session_state(next_window), "checkpoint",
                      session.window_trace(next_window - 1));
    } catch (...) {
      // An injected crash (kThrow) or I/O failure inside the capture must
      // not leave the gate raised: count the abort, release the stages,
      // and let the supervisor's wrapper handle the unwind.
      ++recovery_summary.snapshot_aborts;
      release();
      throw;
    }
    release();
  };

  // The acquire stage's admission cursor: the next window it would push.
  // Thread-confined to the acquire thread; read after join for the
  // shutdown snapshots.
  std::size_t acquired_next = session.first_window();

  // ---- Stage bodies. ----

  auto acquire_body = [&](robust::StageHealth& health) {
    health.set_idle(false);
    // A restarted incarnation resumes at its heartbeat cursor; a resumed
    // session starts at the snapshot's next window, whichever is later.
    for (std::size_t w = std::max(
             session.first_window(),
             static_cast<std::size_t>(health.resume_cursor()));
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
      // The source is always paced by blocking backpressure: acquire runs
      // at virtual speed (no wall-clock cost per window), so a lossy
      // policy here would flood q_raw and shed most of the input before
      // the filter stage ever saw it.  The configured policy governs the
      // downstream processing queues instead.
      const bool pushed = q_raw.push(std::move(item));
      health.set_idle(false);
      if (!pushed && q_raw.closed()) {
        break;
      }
      health.heartbeat(w + 1);
      acquired_next = w + 1;
      // The heartbeat precedes the quiesce on purpose: a crash inside the
      // barrier restarts this body at w + 1, skipping the failed cadence —
      // the next one snapshots normally.
      if (durable && (w + 1) % recovery.interval_windows == 0) {
        quiesce_and_snapshot(w + 1, health);
        health.set_idle(false);
        if (health.abort_requested()) {
          return;
        }
      }
    }
    health.set_idle(true);
    q_raw.close();
  };

  auto filter_body = [&](robust::StageHealth& health) {
    for (;;) {
      health.set_idle(true);
      std::optional<RawItem> item =
          durable ? pop_or_park(q_raw,
                                [&] {
                                  // The coordinator stopped admitting, so
                                  // an empty q_raw stays empty: park.
                                  try_park(gate.filter_epoch,
                                           [] { return true; });
                                })
                  : q_raw.pop();
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
      const bool pushed = push_with_policy(q_filtered, std::move(out));
      health.set_idle(false);
      if (!pushed && q_filtered.closed()) {
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
    // Actual record loss is unambiguous overload regardless of how
    // briefly the depth spiked: a transient the buffer absorbed is
    // what buffers are for, but a shed/dropped record means the
    // consumer truly fell behind its bound.
    const std::uint64_t loss_total =
        q_outcome.shed() + q_deliver.shed() + q_uplink.shed() +
        dropped_newest.load(std::memory_order_relaxed);
    if (loss_total > ts.last_loss_total) {
      pressure = 1.0;
    }
    ts.last_loss_total = loss_total;
    return pressure;
  };

  auto track_body = [&](robust::StageHealth& health) {
    for (;;) {
      health.set_idle(true);
      std::optional<FilteredItem> item =
          durable ? pop_or_park(q_filtered, track_park) : q_filtered.pop();
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
        if (durable) {
          ts.outstanding_jobs.erase(pending.sequence);
        }
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
        // Cloud jobs are never shed once created: a shed job would strand
        // the issued/applied ledger (the result could never arrive), so
        // the uplink queue always blocks regardless of policy.
        const bool pushed = q_uplink.push(std::move(job));
        health.set_idle(false);
        if (pushed) {
          ++ts.issued;
          record.cloud_call_issued = true;
          if (durable) {
            ts.outstanding_jobs[static_cast<std::uint32_t>(w)] = {t_end,
                                                                   window};
          }
        }
      }

      const double pressure =
          session.controller() != nullptr ? sustained_pressure() : 0.0;
      session.feedback(record, pressure, window);
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
      out.trace_id = window.trace_id;
      out.record = std::move(record);
      health.heartbeat(ts.processed.load());
      health.set_idle(true);
      const bool pushed = push_with_policy(q_outcome, std::move(out));
      health.set_idle(false);
      if (!pushed && q_outcome.closed()) {
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
      if (durable) {
        ts.outstanding_jobs.erase(done->sequence);
      }
    }
    q_outcome.close();
  };

  auto predict_body = [&](robust::StageHealth& health) {
    for (;;) {
      health.set_idle(true);
      std::optional<OutcomeItem> item =
          durable ? pop_or_park(q_outcome,
                                [&] {
                                  try_park(gate.predict_epoch, [&] {
                                    return gate.track_epoch == gate.epoch;
                                  });
                                })
                  : q_outcome.pop();
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
      const double t_end = item->record.t_sec;
      if (item->supports_predict) {
        edge.predictor().observe(item->record.anomaly_probability, t_end);
      }
      session.scrape(t_end, item->trace_id);
      session.result.iterations.push_back(std::move(item->record));
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
        std::optional<UplinkJob> job =
            durable ? pop_or_park(q_uplink,
                                  [&] {
                                    // Track parked ⇒ no further issues;
                                    // only then is an empty uplink queue a
                                    // settled one.
                                    try_park(gate.worker_epochs[k], [&] {
                                      return gate.track_epoch == gate.epoch;
                                    });
                                  })
                    : q_uplink.pop();
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
        if (durable) {
          // Republish the draw cursors at the job boundary, before the
          // delivery: whether or not the result below reaches the track
          // stage, the RNG streams advanced iff the search consumed them.
          std::lock_guard<std::mutex> mailbox_lock(me.mailbox.m);
          me.mailbox.injector = me.injector.save();
          me.mailbox.channel_rng = me.channel.save_rng();
        }
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

  // Shutdown snapshots.  A supervisor give-up (forced CRITICAL) publishes
  // the post-mortem state durably — the emergency snapshot — so the next
  // run resumes at the admission cursor instead of cold-starting; a clean
  // end of input snapshots for the same reason.  Windows still in flight
  // at a forced shutdown are lost, exactly as the run's own forced-
  // shutdown semantics already allow.  A failed write must not take down
  // a finished run: the previously published snapshot stays the resume
  // point.
  if (durable) {
    const bool emergency = supervisor.any_failed();
    try {
      session.publish(build_session_state(acquired_next),
                      emergency ? "emergency_checkpoint"
                                : "shutdown_checkpoint",
                      0);
      recovery_summary.emergency_snapshot = emergency;
    } catch (const std::exception&) {
      ++recovery_summary.snapshot_aborts;
    }
  }

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
                       std::uint64_t popped, std::uint64_t shed) {
    robust::StageQueueSummary row;
    row.stage = std::string("q_") + name;
    row.processed = popped;
    row.queue = name;
    row.queue_capacity = capacity;
    row.queue_max_depth = max_depth;
    row.queue_pushed = pushed;
    row.queue_shed = shed;
    result.robust.stages.push_back(std::move(row));
  };
  queue_row("raw", q_raw.capacity(), q_raw.max_depth(), q_raw.pushed(),
            q_raw.popped(), q_raw.shed());
  queue_row("filtered", q_filtered.capacity(), q_filtered.max_depth(),
            q_filtered.pushed(), q_filtered.popped(), q_filtered.shed());
  queue_row("uplink", q_uplink.capacity(), q_uplink.max_depth(),
            q_uplink.pushed(), q_uplink.popped(), q_uplink.shed());
  queue_row("deliver", q_deliver.capacity(), q_deliver.max_depth(),
            q_deliver.pushed(), q_deliver.popped(), q_deliver.shed());
  queue_row("outcome", q_outcome.capacity(), q_outcome.max_depth(),
            q_outcome.pushed(), q_outcome.popped(),
            q_outcome.shed() + dropped_newest.load());
  return result;
}

}  // namespace emap::core
