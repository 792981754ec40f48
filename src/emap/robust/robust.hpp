// Aggregate summary of the robustness subsystem.
//
// One summary struct the RunResult carries, so callers read the whole
// closed loop — degradation controller, circuit breaker, watchdog, quality
// gate — in one place.  Each module's thresholds are constants in its own
// header; see docs/robustness.md for the control loop and threshold map.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

#include <vector>

#include "emap/robust/breaker.hpp"
#include "emap/robust/checkpoint.hpp"
#include "emap/robust/degrade.hpp"
#include "emap/robust/quality.hpp"
#include "emap/robust/supervisor.hpp"
#include "emap/robust/watchdog.hpp"

namespace emap::robust {

/// One streaming stage with its outbound queue (streaming mode only):
/// supervision counters from the StageSupervisor plus the bounded queue's
/// occupancy accounting.  Rendered as per-stage columns in the robust
/// summary JSON.
struct StageQueueSummary {
  std::string stage;
  std::uint64_t processed = 0;
  std::uint64_t stalls = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  bool failed = false;
  /// Outbound queue (empty name = terminal stage, queue fields all 0).
  std::string queue;
  std::uint64_t queue_capacity = 0;
  std::uint64_t queue_max_depth = 0;
  std::uint64_t queue_pushed = 0;
};

/// Controller-loop outcome of one run, embedded in RunResult.
struct RobustSummary {
  DegradeSummary degrade{};
  BreakerSummary breaker{};
  QualitySummary quality{};
  std::size_t watchdog_trips = 0;
  /// Windows served with the last-known P_A because tracking was
  /// suspended in CRITICAL.
  std::size_t critical_windows = 0;
  /// Correlation-set loads truncated to the active shed cap.
  std::size_t shed_loads = 0;
  /// Non-essential telemetry observations buffered while degraded and
  /// flushed late (or at run end).
  std::size_t deferred_flushes = 0;
  /// Checkpoint/restore outcome (all-default when checkpointing is off).
  RecoverySummary recovery{};
  /// True when the run executed on the threaded streaming scheduler.
  bool streamed = false;
  /// Supervisor interventions over the whole stage graph (0 in batch mode).
  std::size_t supervisor_stalls = 0;
  std::size_t supervisor_restarts = 0;
  std::size_t supervisor_crashes = 0;
  /// Per-stage supervision + queue columns (empty in batch mode).
  std::vector<StageQueueSummary> stages{};
};

/// Flat JSON object of the summary (one line, no trailing newline).
std::string robust_summary_json(const RobustSummary& summary);

/// Writes robust_summary_json to `path` + newline, creating parent
/// directories; throws IoError on failure.
void write_robust_summary(const std::filesystem::path& path,
                          const RobustSummary& summary);

}  // namespace emap::robust
