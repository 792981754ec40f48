// Edge degradation controller: burn-rate-driven adaptive load shedding.
//
// PR 3's SLO monitors *observe* when the edge burns its 1 s iteration
// budget; this controller *acts* on that signal.  It is a small hysteretic
// state machine driven once per pipeline window by the rolling
// `emap_slo_burn_rate` plus the window's own miss/near-miss verdicts:
//
//   NOMINAL ──miss/burn──▶ DEGRADED ──sustained misses──▶ CRITICAL
//      ▲                      │  ▲                            │
//      │                      │  └────────miss────────┐       │hold
//      └──K clean, level 0── RECOVERING ◀──K clean────┘◀──────┘
//
// In DEGRADED the controller shrinks the tracked correlation set
// (top-100 → top-50 → top-25 via shed levels), widens the area-between-
// curves re-check stride, and defers non-essential telemetry flushes.  In
// CRITICAL the pipeline stops tracking entirely and serves the last-known
// P_A with an explicit flag.  RECOVERING restores capacity hysteretically:
// each step back up requires kStepUpAfter consecutive clean windows, so
// a marginal edge device settles at its sustainable shed level instead of
// flapping.  Within any single window the shed level moves by at most one
// step (monotone per-window adjustment — a property test asserts this).
//
// All inputs are SimTime-derived, so every decision is deterministic and
// chaos runs replay bit-for-bit.  Thread-safe: the pipeline drives it from
// one thread, but metric scrapes and the TSan'd overload tests touch it
// concurrently.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "emap/obs/metrics.hpp"

namespace emap::robust {

/// Controller states (in escalation order).
enum class DegradeState { kNominal, kDegraded, kCritical, kRecovering };

/// Lowercase state label ("nominal", "degraded", ...).
const char* degrade_state_name(DegradeState state);

// Thresholds of the state machine.  The rolling burn rate counts as entry
// pressure above obs::kBurnRateLimit.

/// Shed levels available: level L caps the tracked set at top_k >> L
/// (100 -> 50 -> 25 with the paper's top-100) and widens the re-check
/// stride by 2^L.
inline constexpr std::size_t kMaxShedLevel = 2;
/// Consecutive pressured windows before stepping one shed level deeper.
inline constexpr std::size_t kEscalateAfter = 2;
/// Consecutive deadline misses at the deepest shed level before the
/// controller gives up tracking and enters CRITICAL.
inline constexpr std::size_t kCriticalAfter = 4;
/// Windows spent in CRITICAL before attempting RECOVERING.
inline constexpr std::size_t kCriticalHold = 5;
/// Consecutive clean windows in DEGRADED before entering RECOVERING.
inline constexpr std::size_t kRecoverAfter = 3;
/// Consecutive clean windows in RECOVERING per one-step capacity
/// restoration (the anti-flap hysteresis).
inline constexpr std::size_t kStepUpAfter = 3;
/// Stage-queue occupancy (max depth/capacity over the streaming graph's
/// queues) at or above which a window counts as pressure even with clean
/// latency: a backlog building between stages is early warning the burn
/// rate cannot see.  The batch pipeline never reports queue pressure
/// (WindowSignal.queue_pressure stays 0).
inline constexpr double kQueuePressureEnter = 0.75;

/// What the pipeline observed over one completed window.
struct WindowSignal {
  std::size_t window_index = 0;
  double t_sec = 0.0;          ///< SimTime at window completion
  double burn_rate = 0.0;      ///< rolling emap_slo_burn_rate
  bool deadline_miss = false;  ///< this window blew its budget
  bool near_miss = false;      ///< within budget but in the warning band
  bool stage_stuck = false;    ///< watchdog verdict: force CRITICAL
  /// Stage-queue occupancy in [0, 1]: max depth/capacity over the
  /// streaming queues (0 in batch mode — no queues exist).
  double queue_pressure = 0.0;
  /// No latency observation this window (quality-gated or CRITICAL);
  /// streaks hold instead of advancing.
  bool no_observation = false;
};

/// One recorded state transition (exported as a span by the pipeline).
struct DegradeTransition {
  std::size_t window_index = 0;
  double t_sec = 0.0;
  DegradeState from = DegradeState::kNominal;
  DegradeState to = DegradeState::kNominal;
};

/// Controller-side slice of the RunResult robustness summary.
struct DegradeSummary {
  DegradeState final_state = DegradeState::kNominal;
  std::size_t transitions = 0;
  std::size_t windows_nominal = 0;
  std::size_t windows_degraded = 0;
  std::size_t windows_critical = 0;
  std::size_t windows_recovering = 0;
  std::size_t max_shed_level = 0;   ///< deepest level reached
  bool entered_degraded = false;    ///< left NOMINAL at least once
};

/// Serializable controller state (checkpoint support): everything
/// observe_window reads or writes, so a restored controller continues the
/// run bit-identically.  The thresholds are compile-time constants, so a
/// resuming controller runs under the same ones; the snapshot decoder
/// and restore() both range-check the shed level against kMaxShedLevel.
struct DegradeCheckpoint {
  DegradeState state = DegradeState::kNominal;
  std::uint64_t shed_level = 0;
  std::uint64_t bad_streak = 0;
  std::uint64_t clean_streak = 0;
  std::uint64_t miss_streak = 0;
  std::uint64_t critical_left = 0;
  bool recovered_since_miss = false;
  /// Summary counters continue across the restore (transition spans are
  /// per-process and deliberately not carried).
  DegradeSummary summary{};
};

/// The burn-rate-driven degradation state machine.
class DegradationController {
 public:
  /// `registry` is borrowed and may be null (summary-only operation).
  explicit DegradationController(obs::MetricsRegistry* registry = nullptr);

  /// Feeds one completed window; at most one state/level step is taken.
  void observe_window(const WindowSignal& signal);

  /// External escalation (sim-time watchdog): forces CRITICAL now.
  void force_critical(std::size_t window_index, double t_sec);

  DegradeState state() const;
  std::size_t shed_level() const;

  /// Cap on the tracked correlation set at the current shed level:
  /// base >> level, floored at 1.
  std::size_t tracked_cap(std::size_t base_top_k) const;

  /// Area re-check stride widening factor: 2^level.
  std::size_t stride_multiplier() const;

  /// Cloud re-call threshold scaled to the current cap (base_h at level 0,
  /// proportionally smaller when shedding, floored at 1) so a shed set
  /// does not trigger a cloud-call storm.
  std::size_t recall_threshold(std::size_t base_h,
                               std::size_t base_top_k) const;

  /// True while non-essential telemetry flushes should be deferred
  /// (any state but NOMINAL).
  bool defer_flushes() const;

  /// Tracking is suspended; serve the last-known P_A.
  bool critical() const { return state() == DegradeState::kCritical; }

  const std::vector<DegradeTransition>& transitions() const;
  DegradeSummary summary() const;

  /// Captures the restorable state (checkpoint support).
  DegradeCheckpoint checkpoint() const;

  /// Restores a saved state; the next observe_window continues exactly
  /// where the saved controller stopped.  Throws InvalidArgument when the
  /// saved shed level exceeds kMaxShedLevel.
  void restore(const DegradeCheckpoint& saved);

 private:
  void transition_locked(DegradeState to, std::size_t window_index,
                         double t_sec);
  void set_level_locked(std::size_t level);

  mutable std::mutex mutex_;
  DegradeState state_ = DegradeState::kNominal;
  std::size_t shed_level_ = 0;
  std::size_t bad_streak_ = 0;
  std::size_t clean_streak_ = 0;
  std::size_t miss_streak_ = 0;      ///< consecutive misses at max level
  std::size_t critical_left_ = 0;    ///< hold windows remaining
  /// The rolling burn rate stays above the entry threshold for a full SLO
  /// window after any miss — including the one the controller just handled.
  /// Once a recovery completes, burn alone must not re-enter DEGRADED until
  /// a fresh miss is observed, or the controller oscillates for the rest of
  /// the burn window.
  bool recovered_since_miss_ = false;
  std::vector<DegradeTransition> transitions_;
  DegradeSummary summary_;

  obs::MetricsRegistry* registry_ = nullptr;
  obs::Gauge* state_metric_ = nullptr;
  obs::Gauge* level_metric_ = nullptr;
  obs::Counter* pressure_metric_ = nullptr;
};

}  // namespace emap::robust
