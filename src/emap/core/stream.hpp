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
// window w+1.  Every queue is bounded and a full queue blocks its
// producer, so backpressure is lossless.
//
// Semantics are deliberately relaxed against the batch loop:
//   * deliveries land at max(virtual ready time, compute arrival), so a
//     run is plausible rather than bit-identical;
//   * stop_on_alarm may admit a few extra in-flight windows before the
//     stop flag propagates back to the acquire stage;
//   * a stage crash (injected or real) loses at most its in-flight
//     window — the supervisor restarts the body and the queues retain
//     everything else;
//   * there is no checkpoint/resume: a pipeline with recovery enabled is
//     rejected (the batch loop is the one crash-recoverable engine).
//
// Robustness integration: a robust::StageSupervisor monitors per-stage
// wall-clock heartbeats, restarts stalled or crashed stages, and — after
// max_restarts — forces the DegradationController CRITICAL and shuts the
// run down.  Stage-queue occupancy feeds the controller each window as
// WindowSignal.queue_pressure, queue depths are exported as
// emap_stage_queue_depth{queue=...}, and supervisor interventions are
// counted in the robust summary (supervisor_stalls / _restarts /
// _crashes).  See docs/streaming.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"
#include "emap/robust/supervisor.hpp"

namespace emap::core {

// SchedulerMode and QueueFullPolicy each have one value left.  They stay
// declared only because existing callers (loopbench) assign them, and go
// with the scheduler.

/// Which engine executes the run: always the threaded stage graph.
enum class SchedulerMode {
  kThreaded,  ///< supervised stage threads over bounded queues
};

/// What a full stage queue does to its producer: always block.
enum class QueueFullPolicy {
  kBlock,  ///< wait for space (lossless backpressure)
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
  SchedulerMode mode = SchedulerMode::kThreaded;
  /// Uplink worker threads = maximum overlapping cloud calls (each worker
  /// owns its own Channel + FaultInjector fork, so fault schedules stay
  /// deterministic per worker).
  std::size_t stage_threads = 2;
  /// Bound of every stage queue (rounded up to a power of two).
  std::size_t queue_capacity = 8;
  QueueFullPolicy policy = QueueFullPolicy::kBlock;
  /// Wall-clock heartbeat supervision of the stage threads.
  robust::SupervisorOptions supervisor{};
  /// Injected stage faults (empty = none).
  std::vector<StageFaultSpec> faults{};

  /// Throws InvalidArgument when a knob is out of range.
  void validate() const;
};

/// The staged scheduler.  Borrows the pipeline: configuration, cloud node,
/// device models, and the cloud-call executor are shared with the batch
/// loop, and the per-window steps run through the same core::Session.
class StreamPipeline {
 public:
  /// Throws InvalidArgument when `options` is out of range or the
  /// pipeline has checkpointing enabled (PipelineOptions::recovery).
  explicit StreamPipeline(EmapPipeline& pipeline, StreamOptions options = {});

  /// Monitors `input` on the supervised stage graph and returns the run
  /// record; a non-negative `stop_at_sec` ends it at that input time, as
  /// in EmapPipeline::run.
  RunResult run(const synth::Recording& input, double stop_at_sec = -1.0);

  const StreamOptions& options() const { return options_; }

 private:
  EmapPipeline& pipeline_;
  StreamOptions options_;
};

}  // namespace emap::core
