// Deterministic crash-point injection (failpoint registry).
//
// The checkpoint subsystem (checkpoint.hpp) claims the pipeline can die at
// any instruction and come back; this registry is how the tests make it
// die at a *chosen* instruction.  Hot paths mark named crash points with
// EMAP_CRASH_POINT(registry, "name"); a test (or emapctl --crash-at) arms
// the registry with a schedule — crash at the Nth hit of point P — and the
// marked code either throws InjectedCrash (in-process tests catch it and
// then resume a fresh pipeline) or calls std::_Exit (process-level CI
// kills, no destructors, the honest crash).  A seeded random mode draws a
// per-hit Bernoulli from an emap::Rng in the style of net::FaultInjector,
// so chaos schedules replay bit-for-bit.
//
// The registry is passed by pointer (null = every hook compiles to a
// single branch), not a global: concurrent tests each own their registry.
//
// Crash-point catalog (crash_point_catalog()):
//   pipeline_window_start    top of the per-window loop
//   pipeline_tracker_step    immediately before the Algorithm 2 step
//   pipeline_pre_cloud_call  after the decision to call, before any message
//   pipeline_post_cloud_call after the call returned (pending recorded)
//   pipeline_window_end      after the window's decision-record line was
//                            appended, before its checkpoint is published
//   checkpoint_pre_write     before any snapshot byte is written
//   checkpoint_pre_rename    compaction: temp written, before the atomic
//                            rename; append: record body written, before
//                            its commit trailer
//   checkpoint_post_write    the new snapshot state is durable
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"

namespace emap::robust {

/// Thrown by a crash point armed in kThrow mode.  Deliberately NOT a
/// subclass of emap::Error: generic error handling must not swallow an
/// injected crash, exactly as it could not swallow a SIGKILL.
class InjectedCrash : public std::exception {
 public:
  explicit InjectedCrash(std::string point)
      : point_(std::move(point)),
        what_("injected crash at point '" + point_ + "'") {}

  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& point() const { return point_; }

 private:
  std::string point_;
  std::string what_;
};

/// What firing a crash point does.
enum class CrashAction {
  kThrow,  ///< throw InjectedCrash (in-process tests)
  kExit,   ///< std::_Exit(kCrashExitCode) — no destructors, a real crash
};

/// Exit code of a kExit crash, distinguishable from every normal failure.
inline constexpr int kCrashExitCode = 42;

/// One armed schedule entry: die at the `hit`-th (1-based) execution of
/// the named point.
struct CrashSchedule {
  std::string point;
  std::uint64_t hit = 1;
};

/// The names every instrumented EMAP crash point uses, in pipeline order.
/// Tests and the CI crash-recovery matrix iterate this list so a newly
/// added point is automatically covered.
const std::vector<std::string>& crash_point_catalog();

/// Registry of named crash points.  Thread-safe; hit() on an un-armed
/// registry is a mutex-free single atomic load.
class CrashPointRegistry {
 public:
  CrashPointRegistry() = default;

  /// Arms one deterministic schedule (replacing any previous arming).
  void arm(CrashSchedule schedule, CrashAction action = CrashAction::kThrow);

  /// Arms a seeded random schedule: every hit of every point draws one
  /// Bernoulli(probability) from a forked stream, FaultInjector-style, so
  /// the crash site is a pure function of (seed, hit sequence).
  void arm_random(double probability, std::uint64_t seed,
                  CrashAction action = CrashAction::kThrow);

  /// Disarms; hit() reverts to pure counting.
  void disarm();

  bool armed() const;

  /// Marks one execution of `point`.  Fires the armed action when the
  /// schedule says so; otherwise just counts.
  void hit(const char* point);

  /// Executions of `point` seen so far (armed or not).
  std::uint64_t hits(const std::string& point) const;

  /// Every point name this registry has seen at least once.
  std::vector<std::string> seen() const;

 private:
  [[noreturn]] void fire(const std::string& point);

  mutable std::mutex mutex_;
  bool armed_ = false;
  std::optional<CrashSchedule> schedule_;
  std::optional<Rng> random_;
  double random_probability_ = 0.0;
  CrashAction action_ = CrashAction::kThrow;
  std::map<std::string, std::uint64_t> counts_;
};

/// RAII arming guard for tests: arms on construction, disarms on scope
/// exit even when the armed crash point threw.
class ScopedCrashSchedule {
 public:
  ScopedCrashSchedule(CrashPointRegistry& registry, CrashSchedule schedule,
                      CrashAction action = CrashAction::kThrow)
      : registry_(registry) {
    registry_.arm(std::move(schedule), action);
  }
  ~ScopedCrashSchedule() { registry_.disarm(); }

  ScopedCrashSchedule(const ScopedCrashSchedule&) = delete;
  ScopedCrashSchedule& operator=(const ScopedCrashSchedule&) = delete;

 private:
  CrashPointRegistry& registry_;
};

}  // namespace emap::robust

/// Marks a named crash point.  `registry` is a CrashPointRegistry* and may
/// be null (the common case: one predictable branch, no lock).
#define EMAP_CRASH_POINT(registry, name)     \
  do {                                       \
    if ((registry) != nullptr) {             \
      (registry)->hit(name);                 \
    }                                        \
  } while (false)
