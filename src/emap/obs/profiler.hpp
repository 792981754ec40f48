// Continuous profiling: low-overhead scoped stage profiler.
//
// The paper's headline claims are latency claims, and the spans/metrics of
// span.hpp answer "how long did this run take" — but not "where inside the
// hot path did the time go".  The Profiler answers that second question:
// RAII ProfileScope guards mark stages (FIR filtering, the Algorithm 1
// scan, area tracking, the wire codec, channel transfers), nest into
// per-thread call trees, and aggregate call-count / total / self time per
// stage path.  The result exports as a JSON profile and as collapsed-stack
// text (`a;b;c <self_us>`) that flamegraph.pl or speedscope render
// directly.
//
// Cost model: when profiling is disabled (the default) a ProfileScope is
// one relaxed atomic load and two null checks — cheap enough to leave the
// hooks compiled into the hot paths unconditionally.  When enabled, each
// scope takes one uncontended per-thread mutex and two steady_clock reads;
// hooks are placed at stage granularity (per window, per scan range, per
// message), never per sample, so the enabled overhead on the instrumented
// benches stays in the low single-digit percent (bench_fig7b measures and
// reports it as `profiler_overhead_pct`).
//
// Threading: every thread records into its own tree (keyed by string
// literal identity, so hook names must be literals or otherwise outlive
// the profiler).  report() merges the per-thread trees by stage path; a
// stage entered from a worker thread roots its own path there, which is
// exactly what a flamegraph wants (the pool's scan ranges show up as
// first-level frames of the worker threads).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace emap::obs {

/// Aggregated statistics of one stage path across all threads.
struct StageProfile {
  std::string path;        ///< "/"-joined nesting, e.g. "search/scan"
  std::uint64_t calls = 0;
  std::uint64_t work = 0;  ///< stage-defined unit count (ops, bytes, skips)
  double total_sec = 0.0;  ///< inclusive wall time
  double self_sec = 0.0;   ///< total minus direct children
  /// Heap allocations attributed to this stage (interposed global
  /// operator new; inclusive of children entered without their own scope,
  /// exclusive of nested profiled stages).
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Process-wide stage profiler.  All hooks funnel into instance(); tests
/// may construct private instances.
class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The process-wide profiler the EMAP_PROFILE_SCOPE hooks record into.
  static Profiler& instance();

  /// Global enable switch for the instance() hooks; disabled scopes cost
  /// one relaxed atomic load.  Off by default.
  static bool enabled() {
    return enabled_flag_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    enabled_flag_.store(on, std::memory_order_relaxed);
  }

  /// Merged per-stage table across every thread that recorded, sorted by
  /// path.  Safe to call while other threads keep recording (their trees
  /// are locked briefly, one thread at a time).
  std::vector<StageProfile> report() const;

  /// Collapsed-stack text: one `path;with;semicolons <self_us>` line per
  /// stage (flamegraph.pl / speedscope "collapsed" input).  Stages whose
  /// self time rounds to zero microseconds are kept at 1 so no frame
  /// silently vanishes from the graph.
  std::string to_collapsed_stacks() const;

  /// JSON profile: `{"build":{...},"stages":[{...}]}`, stamped with the
  /// build-info constants so profiles from different binaries stay
  /// distinguishable.
  std::string to_json() const;

  /// Drops all recorded data (thread registrations survive).
  void reset();

  // Internal node of one thread's call tree (public for ProfileScope).
  struct Node {
    const char* name = "";
    Node* parent = nullptr;
    std::uint64_t calls = 0;
    std::uint64_t work = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    // Written by the operator-new interposer under no lock (allocation can
    // happen while this thread holds the tree mutex), hence atomics.
    std::atomic<std::uint64_t> alloc_count{0};
    std::atomic<std::uint64_t> alloc_bytes{0};
    std::map<const void*, std::unique_ptr<Node>> children;
  };

  struct ThreadState {
    std::mutex mutex;
    Node root;
    Node* current = &root;
  };

  /// This thread's recording state, registered on first use.
  ThreadState& local_state();

 private:
  static std::atomic<bool> enabled_flag_;
  static std::atomic<std::uint64_t> next_id_;

  /// Key of this instance in each thread's state map.  Unlike the address,
  /// it is never reused, so a Profiler built where an earlier one died
  /// cannot pick up that one's (unregistered) thread states.
  const std::uint64_t id_ = next_id_.fetch_add(1, std::memory_order_relaxed);
  mutable std::mutex states_mutex_;
  /// Every thread's state (each thread's local_state() map refers to its
  /// own without owning it, so the call trees die with the profiler).
  std::vector<std::shared_ptr<ThreadState>> states_;
};

/// RAII stage guard recording into Profiler::instance().  A scope
/// constructed while profiling is disabled stays inert for its whole
/// lifetime, even if profiling is enabled before it closes.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name);
  /// Records into `profiler` unconditionally (tests and private profilers;
  /// ignores the global enable switch).
  ProfileScope(const char* name, Profiler& profiler);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// Adds `count` stage-defined work units (e.g. offsets skipped by the
  /// exponential search, ABS ops spent by area tracking) to this stage.
  void add_work(std::uint64_t count);

 private:
  Profiler::ThreadState* state_ = nullptr;
  Profiler::Node* node_ = nullptr;
  /// Allocation-attribution node this scope displaced (restored on exit).
  Profiler::Node* prev_alloc_node_ = nullptr;
  std::chrono::steady_clock::time_point started_;
};

class MetricsRegistry;

/// Surfaces the per-stage allocation counters as gauges:
/// `emap_profiler_alloc_count{stage=...}` and
/// `emap_profiler_alloc_bytes{stage=...}` (cumulative totals at call time;
/// call right before exporting the registry).
void export_profiler_alloc_metrics(MetricsRegistry& registry,
                                   const Profiler& profiler);

/// Writes to_json() / to_collapsed_stacks() to `path`, creating parent
/// directories; throws IoError on failure.
void write_profile_json(const std::filesystem::path& path,
                        const Profiler& profiler);
void write_collapsed_stacks(const std::filesystem::path& path,
                            const Profiler& profiler);

}  // namespace emap::obs

// Hot-path hook: expands to a ProfileScope with a unique local name.  The
// stage name must be a string literal (node keys are pointer identities).
#define EMAP_PROFILE_CONCAT_INNER(a, b) a##b
#define EMAP_PROFILE_CONCAT(a, b) EMAP_PROFILE_CONCAT_INNER(a, b)
#define EMAP_PROFILE_SCOPE(name)                                     \
  ::emap::obs::ProfileScope EMAP_PROFILE_CONCAT(emap_profile_scope_, \
                                                __LINE__)(name)
