// Stage supervisor: wall-clock heartbeat monitoring and restart of the
// streaming pipeline's stage threads.
//
// The sim-time StageWatchdog (watchdog.hpp) judges a stage by its *virtual*
// duration — a pure function of the device model, so chaos runs replay
// bit-for-bit.  The supervisor is its wall-clock sibling for the threaded
// scheduler, where a stage can actually wedge: each stage thread beats a
// per-stage heartbeat after every work item, and a monitor thread polls
// them.  A stage that stops beating while not idle past the stall timeout
// is declared stalled: the supervisor records the stall
// (emap_stage_stalls_total{stage=...}) and requests a cooperative abort.
// The stage body unwinds at its next cancellation point and is restarted
// from its last heartbeat cursor — the bounded queues upstream and downstream
// retain their items, so a restart resumes the graph where it stopped
// (at most the in-flight item is lost).  A stage body that *throws*
// (including robust::InjectedCrash from an armed crash point) restarts the
// same way.  After max_restarts the supervisor gives up: the stage is
// marked failed and the failure handler runs — the streaming engine uses
// it to force the DegradationController CRITICAL and shut the run down.
//
// Recovery is cooperative by construction: a stage that never reaches a
// cancellation point (a true runaway loop) is detected and reported but
// cannot be reclaimed without killing the process — the stall count and
// the CRITICAL escalation are the supervisor's last word there.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "emap/obs/metrics.hpp"

namespace emap::robust {

/// Supervisor knobs (wall-clock seconds; this is the one robustness
/// component that is *not* virtual-time driven).
struct SupervisorOptions {
  /// Monitor poll cadence.
  double poll_interval_sec = 0.005;
  /// A busy stage silent for longer than this is stalled.
  double stall_timeout_sec = 0.25;
  /// Restarts (stall or crash) per stage before giving up.
  std::size_t max_restarts = 4;

  /// Throws InvalidArgument when a knob is out of range.
  void validate() const;
};

/// Per-stage outcome counters (also exported inside RobustSummary).
struct StageStats {
  std::string name;
  std::uint64_t processed = 0;  ///< heartbeats = work items completed
  std::uint64_t stalls = 0;     ///< stall verdicts by the monitor
  std::uint64_t crashes = 0;    ///< exceptions caught by the wrapper
  std::uint64_t restarts = 0;   ///< times the body was re-invoked
  std::uint64_t last_cursor = 0;
  bool failed = false;  ///< gave up after max_restarts
};

/// The stage thread's view of its own supervision: beat after every item,
/// mark idle while blocked on an empty/full queue, and honour
/// abort_requested() at every cancellation point.
class StageHealth {
 public:
  void heartbeat(std::uint64_t cursor) {
    cursor_.store(cursor, std::memory_order_relaxed);
    beats_.fetch_add(1, std::memory_order_release);
  }
  /// Idle stages (blocked waiting for work) are exempt from stall verdicts.
  void set_idle(bool idle) { idle_.store(idle, std::memory_order_release); }
  bool abort_requested() const {
    return abort_.load(std::memory_order_acquire);
  }
  /// Cursor of the last heartbeat before the current (re)start — where a
  /// restarted body should resume.
  std::uint64_t resume_cursor() const {
    return resume_cursor_.load(std::memory_order_acquire);
  }

 private:
  friend class StageSupervisor;
  std::atomic<std::uint64_t> beats_{0};
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> resume_cursor_{0};
  std::atomic<bool> idle_{true};
  std::atomic<bool> abort_{false};
};

/// Owns the stage threads and the monitor; extends the watchdog family to
/// the threaded scheduler.
class StageSupervisor {
 public:
  using StageBody = std::function<void(StageHealth&)>;

  /// `registry` is borrowed and may be null.
  explicit StageSupervisor(SupervisorOptions options = {},
                           obs::MetricsRegistry* registry = nullptr);
  ~StageSupervisor();

  StageSupervisor(const StageSupervisor&) = delete;
  StageSupervisor& operator=(const StageSupervisor&) = delete;

  /// Runs when a stage exceeds max_restarts; called from the stage's own
  /// thread, once per failed stage.  Install before spawn().
  void set_failure_handler(std::function<void(const std::string&)> handler);

  /// Launches `body` on its own supervised thread.  The body must return
  /// when its input queue drains or abort_requested() turns true.
  void spawn(const std::string& name, StageBody body);

  /// Cooperative shutdown: every stage sees abort_requested() without the
  /// supervisor counting it as a stall or attempting restarts.
  void request_abort();

  /// Joins every stage thread and stops the monitor.  Idempotent.
  void join_all();

  std::vector<StageStats> stats() const;
  std::uint64_t stalls_detected() const {
    return stalls_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }
  std::uint64_t crashes() const {
    return crashes_.load(std::memory_order_relaxed);
  }
  /// Any stage exhausted its restart budget.
  bool any_failed() const { return failed_.load(std::memory_order_acquire); }

  const SupervisorOptions& options() const { return options_; }

 private:
  struct Stage {
    std::string name;
    StageBody body;
    StageHealth health;
    std::thread thread;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> stalls{0};
    std::atomic<std::uint64_t> crashes{0};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<bool> failed{false};
    // Monitor bookkeeping (monitor thread only).
    std::uint64_t seen_beats = 0;
    std::chrono::steady_clock::time_point last_change{};
    obs::Counter* stall_metric = nullptr;
    obs::Counter* restart_metric = nullptr;
  };

  void run_stage(Stage& stage);
  void monitor_loop();

  SupervisorOptions options_;
  obs::MetricsRegistry* registry_;
  std::function<void(const std::string&)> failure_handler_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::thread monitor_;
  std::atomic<bool> monitor_stop_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> joined_{false};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<bool> failed_{false};
};

}  // namespace emap::robust
