// EmapPipeline: the closed-loop cloud-edge system (paper Fig. 3 + Fig. 9).
//
// Drives an input recording through the full framework — acquisition,
// upload, cloud search, download, edge tracking, prediction — while
// maintaining a virtual clock: the input advances one window per second of
// simulated time, transfers take Channel time, and compute takes
// DeviceProfile time, so the Fig. 9 timeline and Eq. 4's Δ_initial fall out
// of the run.
//
// Failure semantics: every cloud call runs under the edge's RetryPolicy.
// A message lost or corrupted in flight (net::FaultInjector) costs the
// edge one timeout, then a backoff, then a retry; when the policy's
// attempts or deadline are exhausted the pipeline degrades gracefully —
// it keeps tracking the stale correlation set (flagged `degraded` in the
// RunResult and report), and re-attempts the cloud call on the next
// iteration that wants one.  Timeouts guard message *loss*; a message
// that is merely delayed still arrives and is accepted late.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "emap/core/cloud_call.hpp"
#include "emap/core/cloud_node.hpp"
#include "emap/core/edge_node.hpp"
#include "emap/mdb/store.hpp"
#include "emap/net/channel.hpp"
#include "emap/net/fault.hpp"
#include "emap/net/retry.hpp"
#include "emap/obs/alert.hpp"
#include "emap/obs/metrics.hpp"
#include "emap/obs/slo.hpp"
#include "emap/obs/span.hpp"
#include "emap/obs/trace_context.hpp"
#include "emap/robust/robust.hpp"
#include "emap/sim/device.hpp"
#include "emap/synth/generator.hpp"

namespace emap::core {

/// Fixed latency of the edge's hard-coded filter accelerator (the length
/// of every window's "filter" span).
inline constexpr double kFilterAcceleratorSec = 0.002;

/// Pipeline environment switches.
struct PipelineOptions {
  net::CommPlatform platform = net::CommPlatform::kLte;
  net::ChannelOptions channel{};
  /// Link fault model.  All probabilities default to zero, in which case
  /// the run is bit-identical to a fault-free pipeline.
  net::FaultOptions fault{};
  /// Edge-side retry/timeout/backoff policy for cloud calls.
  net::RetryOptions retry{};
  /// Route messages through encode/decode (includes the 16-bit wire
  /// quantization in the signal path, as the real system would).
  bool use_transport = true;
  /// End the run at the first alarm (the alarm latches, so lead-time
  /// evaluation only needs first_alarm_sec).
  bool stop_on_alarm = false;
  /// Number of cloud worker threads (0 = hardware concurrency).
  std::size_t cloud_threads = 0;
  /// The decision record (empty = none): each run truncates this file,
  /// then appends and flushes one JSON line per completed window
  /// (core::iteration_json), so a run that dies leaves the lines of every
  /// window it finished.
  std::filesystem::path record_path;
  /// Telemetry registry (borrowed; nullptr disables).  When set, the
  /// pipeline and every layer it drives (search, tracker, channel, codec,
  /// fault injector) record `emap_*` metrics into it, including the
  /// `emap_slo_*` families of the two paper budgets, and the built-in
  /// alert rules (obs/alert.hpp) evaluate it at the end of every window,
  /// on the virtual clock.
  obs::MetricsRegistry* metrics = nullptr;
  /// Edge device-model override (default: Raspberry Pi; the cloud is
  /// always the i7 profile).  A slower edge profile pushes track steps past
  /// the 1 s budget — which is how the SLO integration test provokes
  /// deadline misses on demand.
  std::optional<sim::DeviceProfile> edge_device;
  /// Crash-consistent checkpoint/restore (robust/checkpoint.hpp).  With a
  /// checkpoint_dir set, the pipeline snapshots the full resumable session
  /// state after every completed window; with resume = true it restores
  /// the snapshot at run start and replays from the first un-checkpointed
  /// window — on a clean link the resumed P_A trajectory is bit-identical
  /// to the uninterrupted run's.
  robust::RecoveryOptions recovery{};
  /// Deterministic crash injection (borrowed; nullptr disables).  Armed
  /// points fire inside the window loop and the checkpoint writer; see
  /// robust::crash_point_catalog() for the registered names.
  robust::CrashPointRegistry* crashpoints = nullptr;
};

/// Why a window issued no cloud call, in the order Session::track checks.
enum class NoCallReason {
  kNone,          ///< a call was issued
  kCritical,      ///< CRITICAL: tracking suspended
  kQualityGated,  ///< the quality gate excluded the window
  kInFlight,      ///< cold start with a call outstanding, or the
                  ///< outstanding-call limit reached
  kNotNeeded,     ///< the tracker did not ask for a call
  kBreakerOpen,   ///< the circuit breaker turned the call away
  kStopping,      ///< the threaded uplink queue closed at shutdown
};

const char* no_call_reason_name(NoCallReason reason);

/// Per-iteration record of the run.
struct IterationRecord {
  std::size_t window_index = 0;
  double t_sec = 0.0;                ///< virtual time at window completion
  bool set_loaded = false;           ///< a correlation set arrived here
  /// Sequence of the call whose set loaded here (the issuing window's
  /// index); -1 when no set loaded.
  std::int64_t loaded_sequence = -1;
  double pa_on_load = -1.0;          ///< P_A of the freshly loaded set
  bool tracked = false;              ///< a tracking step ran this window
  double anomaly_probability = 0.0;  ///< P_A after the step
  /// The predictor's alarm has latched by the end of this window.
  bool anomaly_predicted = false;
  std::size_t tracked_before = 0;
  std::size_t tracked_after = 0;
  std::size_t removed_dissimilar = 0;
  std::size_t removed_exhausted = 0;
  bool cloud_call_issued = false;
  /// Why no call was issued (kNone exactly when cloud_call_issued).
  NoCallReason no_call_reason = NoCallReason::kNone;
  /// A cloud call exhausted its retries at this window; the edge kept the
  /// stale correlation set instead of loading a fresh one.
  bool degraded = false;
  double track_device_sec = 0.0;     ///< edge-device-model time of the step
  std::uint64_t abs_ops = 0;
  /// Degradation-controller state the window ran under (decisions apply
  /// from the state the *previous* window left behind).
  robust::DegradeState robust_state = robust::DegradeState::kNominal;
  /// Tracked-set cap active this window (0 = uncapped).
  std::size_t shed_cap = 0;
  /// Quality-gate verdict of the raw window; anything but kGood excluded
  /// the window from tracking and P_A updates.
  robust::QualityVerdict quality = robust::QualityVerdict::kGood;
  /// The tracker wanted a cloud call but the circuit breaker was open.
  bool breaker_rejected = false;
  /// Tracking suspended (CRITICAL): anomaly_probability is the last-known
  /// P_A served stale.
  bool robust_critical = false;
  /// Circuit-breaker state once the window's call (if any) was issued.
  robust::BreakerState breaker_state = robust::BreakerState::kClosed;
  /// This window was executed by a run resumed from a checkpoint.
  bool recovered = false;
  /// Alert transitions made at this window's rule evaluation (empty when
  /// no rule changed state, or without a metrics registry).
  std::vector<obs::AlertTransition> alerts;
};

/// Eq. 4 decomposition of the first cloud round trip.
struct RunTimings {
  double delta_ec_sec = 0.0;   ///< edge -> cloud transfer
  double delta_cs_sec = 0.0;   ///< cloud search (device model)
  double delta_ce_sec = 0.0;   ///< cloud -> edge transfer
  double delta_initial_sec = 0.0;  ///< sum (Eq. 4)
  double mean_track_sec = 0.0;     ///< average edge iteration (device model)
  double max_track_sec = 0.0;
};

/// Outcome of one monitored input.
struct RunResult {
  std::vector<IterationRecord> iterations;
  bool anomaly_predicted = false;
  double first_alarm_sec = -1.0;
  std::size_t cloud_calls = 0;       ///< correlation sets delivered
  /// Cloud calls that exhausted every retry; the edge degraded to its
  /// stale set for those rounds.
  std::size_t failed_cloud_calls = 0;
  /// Retry attempts beyond the first, summed over all cloud calls.
  std::size_t retry_attempts = 0;
  /// Duplicate downloads discarded by the edge's sequence dedup.
  std::size_t duplicates_discarded = 0;
  /// True when any cloud call exhausted its retries during the run.
  bool degraded = false;
  RunTimings timings;
  /// Full span log of the run.  Every window mints a deterministic 64-bit
  /// trace id (obs::mint_trace_id under obs::kDefaultTraceSeed) that rides
  /// the wire messages into the cloud and back, so edge and cloud spans of
  /// one window share a trace.  Export with obs::write_spans_jsonl (the
  /// Chrome trace is a view of that file: `emapctl trace --chrome`), or
  /// draw the Fig. 9 chart with obs::render_timeline_ascii.
  std::shared_ptr<obs::Tracer> tracer;
  /// Verdicts of the paper's two latency budgets over this run
  /// (edge_iteration, initial_response); core::run_summary_json writes
  /// them as `slo_<name>_<field>`.
  std::vector<obs::SloSummary> slo;
  /// Robustness controller-loop outcome; core::run_summary_json writes it
  /// through robust::robust_summary_json.
  robust::RobustSummary robust;
  /// Alert engine after the run — rule states and the transition log
  /// (null without options.metrics).  Each transition is also on the
  /// record of the window whose evaluation made it.
  std::shared_ptr<obs::AlertEngine> alerts;

  /// P_A sequence across tracked iterations.
  std::vector<double> pa_history() const;
};

/// Checkpoint conversions (robust/checkpoint.hpp holds the serializable
/// mirror types).
robust::TrackedSignalState to_signal_state(const TrackedSignal& signal);
TrackedSignal from_signal_state(robust::TrackedSignalState&& state);
robust::PendingCallCheckpoint to_call_checkpoint(const PendingSearch& call);
PendingSearch from_call_checkpoint(robust::PendingCallCheckpoint&& call);

/// The full framework instance.
class EmapPipeline {
 public:
  EmapPipeline(mdb::MdbStore store, EmapConfig config,
               PipelineOptions options = {});

  /// Monitors `input` (must be sampled at config.base_fs_hz) and returns
  /// the run record.  The pipeline resets per run; runs are independent.
  /// A non-negative `stop_at_sec` ends the run at that input time: windows
  /// are 1 s long, so the run is the first floor(stop_at_sec) windows of
  /// the whole-input run.  The Fig. 10 lead-time sweep re-runs one
  /// pipeline at many stop points; predictions made before `stop_at_sec`
  /// with the anomaly at onset_sec count at lead onset_sec - stop_at_sec.
  RunResult run(const synth::Recording& input, double stop_at_sec = -1.0);

  const CloudNode& cloud() const { return cloud_; }
  const EmapConfig& config() const { return config_; }
  const PipelineOptions& options() const { return options_; }

 private:
  friend class Session;
  friend class StreamPipeline;

  EmapConfig config_;
  PipelineOptions options_;
  CloudNode cloud_;
  sim::DeviceProfile edge_device_;
  sim::DeviceProfile cloud_device_;
  /// The cloud round trip shared with the streaming uplink stage
  /// (core/cloud_call.hpp); the batch loop and the threaded engine issue
  /// calls through the same code.
  CloudCallExecutor executor_;

  /// Cached telemetry handles (resolved once in the constructor; all null
  /// when options.metrics is null).  Round-trip families live in the
  /// executor's CloudCallMetrics.
  struct PipelineMetrics {
    obs::Counter* windows = nullptr;
    obs::Counter* degraded_windows = nullptr;
    obs::Counter* recovery_checkpoints = nullptr;
    obs::Counter* recovery_compactions = nullptr;
    obs::Counter* recovery_checkpoint_bytes = nullptr;
    obs::Counter* recovery_resumes = nullptr;
    obs::Counter* recovery_cold_starts = nullptr;
    obs::Gauge* recovery_resume_window = nullptr;
    obs::Histogram* track_step = nullptr;
  };
  PipelineMetrics metrics_{};
};

}  // namespace emap::core
