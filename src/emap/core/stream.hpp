// StreamPipeline: the staged concurrent scheduler over EmapPipeline.
//
// The batch loop (pipeline.cpp) runs acquire → filter → deliver → track →
// predict inline, one window at a time, on the virtual clock.  This engine
// splits the same dataflow into supervised stage threads connected by
// bounded lock-free queues (common/bounded_queue.hpp):
//
//   acquire ─q_raw→ filter ─q_filtered→ track ─q_outcome→ predict
//                                        │  ▲
//                                 q_uplink  q_deliver
//                                        ▼  │
//                                  uplink workers (×N)
//
// so edge iteration overlaps in-flight cloud calls: while an uplink worker
// runs the MDB search of window w, the track stage is already stepping
// window w+1.  Backpressure is explicit — every queue is bounded, and the
// configured QueueFullPolicy decides what a full queue does to its
// producer (block, shed the oldest item, or degrade by dropping the
// newest).
//
// Scheduler modes:
//   kVirtualTime — single-threaded, delegates to EmapPipeline::run.  Bit-
//     identical to the batch loop by construction; every existing
//     bit-identity / checkpoint-resume / kernel-equivalence guarantee
//     carries over unchanged.  This is the default.
//   kThreaded — real concurrency with deliberately relaxed semantics:
//     * deliveries land at max(virtual ready time, compute arrival), so a
//       run is plausible rather than bit-identical;
//     * stop_on_alarm may admit a few extra in-flight windows before the
//       stop flag propagates back to the acquire stage;
//     * a stage crash (injected or real) loses at most its in-flight
//       window — the supervisor restarts the body and the queues retain
//       everything else;
//     * checkpoint/restore runs through a quiesce barrier: on cadence the
//       acquire stage stops admitting windows, the stages park in
//       topological order, the issued/applied ledger drains (bounded by
//       drain_timeout_sec — unsettled in-flight windows fall back to
//       to-replay entries in the snapshot), and the session state is
//       published through the same append-only checkpoint log as the
//       batch loop.  Resume rebuilds the stage graph from the
//       snapshot with the settled-ledger semantics above (≤1 in-flight
//       window per stage death re-delivered as failed/degraded).
//
// Robustness integration: a robust::StageSupervisor monitors per-stage
// wall-clock heartbeats, restarts stalled or crashed stages, and — after
// max_restarts — forces the DegradationController CRITICAL and shuts the
// run down.  Stage-queue occupancy feeds the controller each window as
// WindowSignal.queue_pressure, queue depths are exported as
// emap_stage_queue_depth{queue=...}, and supervisor interventions land in
// the flight recorder (kStageStall events + triggered dumps).  See
// docs/streaming.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/robust/supervisor.hpp"

namespace emap::core {

/// Which engine executes the run.
enum class SchedulerMode {
  kVirtualTime,  ///< single-threaded batch loop (bit-identical, default)
  kThreaded,     ///< supervised stage threads over bounded queues
};

/// What the track stage does when the egress queue (q_outcome) is full;
/// the ingest and cloud-call queues always block (docs/streaming.md).
enum class QueueFullPolicy {
  kBlock,      ///< wait for space (lossless backpressure, default)
  kShedOldest, ///< discard the stalest queued item to admit the newest
  kDegrade,    ///< drop the newest item and flag the window degraded
};

/// Deterministic stage-fault injection for the soak suite: when the named
/// stage's work-item cursor reaches `at_cursor`, the fault fires once.
struct StageFaultSpec {
  enum class Kind {
    kStall,  ///< stop heartbeating (busy-sleep) until the supervisor aborts
    kCrash,  ///< throw from the stage body (supervisor restarts it)
  };
  std::string stage;             ///< supervised stage name ("track", ...)
  std::uint64_t at_cursor = 1;   ///< fires as the stage begins its
                                 ///< at_cursor-th work item (1-based)
  Kind kind = Kind::kStall;
  /// Upper bound on an injected stall (safety net if supervision is
  /// disabled; the supervisor normally aborts the stall much earlier).
  double stall_max_sec = 10.0;
};

/// Streaming scheduler knobs.
struct StreamOptions {
  SchedulerMode mode = SchedulerMode::kVirtualTime;
  /// Uplink worker threads = maximum overlapping cloud calls (each worker
  /// owns its own Channel + FaultInjector fork, so fault schedules stay
  /// deterministic per worker).
  std::size_t stage_threads = 2;
  /// Bound of every stage queue (rounded up to a power of two).
  std::size_t queue_capacity = 8;
  QueueFullPolicy policy = QueueFullPolicy::kBlock;
  /// Wall-clock heartbeat supervision of the stage threads.
  robust::SupervisorOptions supervisor{};
  /// Injected stage faults (kThreaded only; empty = none).
  std::vector<StageFaultSpec> faults{};
  /// Wall-clock bound on the checkpoint quiesce drain (kThreaded only):
  /// in-flight cloud calls that have not settled within this budget are
  /// recorded as to-replay entries instead of blocking the snapshot.
  double drain_timeout_sec = 1.0;

  /// Throws InvalidArgument when a knob is out of range.
  void validate() const;

  /// Stream-topology fingerprint embedded in checkpoints: empty for
  /// kVirtualTime (batch snapshots stay bit-identical to v2 producers);
  /// for kThreaded a stable "threaded/workers=N/cap=N/policy=..." label.
  /// A resume under a different topology is an explicit reject, never a
  /// silent mismatch.
  std::string fingerprint() const;
};

/// Lowercase mode / policy labels for reports and CLIs.
const char* scheduler_mode_name(SchedulerMode mode);
const char* queue_full_policy_name(QueueFullPolicy policy);

/// The staged scheduler.  Borrows the pipeline: configuration, cloud node,
/// device models, and the cloud-call executor are shared with the batch
/// loop, and the per-window steps run through the same core::Session.
class StreamPipeline {
 public:
  explicit StreamPipeline(EmapPipeline& pipeline, StreamOptions options = {});

  /// Monitors `input` under the configured scheduler and returns the run
  /// record.  kVirtualTime delegates to EmapPipeline::run (bit-identical);
  /// kThreaded runs the supervised stage graph.
  RunResult run(const synth::Recording& input);

  const StreamOptions& options() const { return options_; }

 private:
  RunResult run_threaded(const synth::Recording& input);

  EmapPipeline& pipeline_;
  StreamOptions options_;
};

}  // namespace emap::core
