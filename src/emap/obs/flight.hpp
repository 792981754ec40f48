// Flight recorder: a bounded ring of recent structured events (span
// boundaries, SLO misses, robust state transitions, fault-injector
// verdicts, crash points) that can be dumped to JSONL at the moment
// something goes wrong — a crash-point trip, an SLO burn-rate page, or a
// breaker open.  The ring always holds the *most recent* events: writers
// never allocate, so the recorder is safe to call from the hot path and
// from the crash-point trip itself.
//
// One mutex guards the ring.  A writer holds it for one fixed-size copy,
// and snapshot() copies the ring under it, so no reader ever sees a
// half-written event.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace emap::obs {

/// What kind of moment an event marks; rendered as a stable string in
/// the JSONL dump (see flight_event_type_name).
enum class FlightEventType : std::uint8_t {
  kSpan = 0,          ///< span boundary (window / cloud-call lifecycle)
  kSloMiss,           ///< one observation blew its SLO budget
  kSloBurnPage,       ///< rolling burn rate crossed 1.0 (paging condition)
  kRobustTransition,  ///< degradation state machine moved
  kBreakerOpen,       ///< circuit breaker opened
  kBreakerClose,      ///< circuit breaker closed again
  kFaultVerdict,      ///< fault injector hit a transfer
  kRetry,             ///< cloud-call attempt rejected, retry scheduled
  kShed,              ///< a cloud call was shed (open breaker rejected it)
  kCheckpoint,        ///< session checkpoint written
  kResume,            ///< run resumed from a checkpoint
  kCrashPoint,        ///< crash point tripped (always the dump's last event)
  kAlert,             ///< alert rule fired or resolved (a=value, b=threshold)
  kStageStall,        ///< supervisor intervention: stall/crash/restart/giveup
};

const char* flight_event_type_name(FlightEventType type);

/// One recorded moment.  POD on purpose: events are copied in and out of
/// the ring without construction, and the label is a bounded char array
/// so logging never allocates.
struct FlightEvent {
  static constexpr std::size_t kLabelCapacity = 48;

  std::uint64_t seq = 0;       ///< global order of the event
  std::uint64_t trace_id = 0;  ///< owning causal chain; 0 = none
  double t_sec = -1.0;         ///< virtual-clock stamp; < 0 = none
  double a = 0.0;              ///< type-specific value (latency, state, ...)
  double b = 0.0;              ///< type-specific value (budget, hint, ...)
  FlightEventType type = FlightEventType::kSpan;
  char label[kLabelCapacity] = {};

  std::string label_view() const;
};

/// Bounded event ring with JSONL dump-on-trigger.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1024);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event; never allocates, truncates the label to
  /// kLabelCapacity - 1 characters.  Safe from any thread.
  void log(FlightEventType type, const char* label, double t_sec,
           std::uint64_t trace_id = 0, double a = 0.0, double b = 0.0);

  /// Copy of the surviving events (the newest capacity() ones) in seq
  /// order.
  std::vector<FlightEvent> snapshot() const;

  /// Where trigger_dump writes; empty disables dumping (events still
  /// accumulate and snapshot() still works).
  void set_dump_path(std::filesystem::path path);
  const std::filesystem::path& dump_path() const { return dump_path_; }

  /// Dumps the current snapshot as JSONL (one event per line, preceded
  /// by one header line naming the reason).  Returns false when no dump
  /// path is configured or the write failed.  Never throws: this runs
  /// on the crash path.
  bool trigger_dump(const char* reason) noexcept;

  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t total_logged() const;
  std::uint64_t dumps_written() const {
    return dumps_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<FlightEvent> ring_;  ///< event seq lives at seq % capacity
  std::uint64_t head_ = 0;         ///< events logged so far
  std::atomic<std::uint64_t> dumps_{0};
  std::filesystem::path dump_path_;
};

/// Renders one event as a flat JSON object line (the dump format).
std::string flight_event_json(const FlightEvent& event);

}  // namespace emap::obs
