// Span tracing: hierarchical timed intervals with wall-clock and virtual
// SimTime stamps.
//
// A Tracer collects SpanRecords; RAII Tracer::Span scopes measure wall
// time and nest parent/child automatically, while record_sim() logs
// intervals on the pipeline's virtual clock (the Fig. 9 timeline).  The
// ASCII Fig. 9 chart and the Chrome trace_event exporter both draw this
// one span log (see export.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace emap::obs {

class Histogram;

/// One completed traced interval.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root span
  std::uint64_t trace_id = 0;    ///< causal chain (obs::TraceContext); 0 = none
  std::string name;              ///< instance label, e.g. "delta_EC"
  std::string category;          ///< row/track, e.g. "upload"
  double wall_start_us = 0.0;    ///< microseconds since tracer epoch
  double wall_dur_us = 0.0;
  double sim_start_sec = -1.0;   ///< virtual-clock stamp; < 0 = none
  double sim_dur_sec = 0.0;
};

/// Thread-safe append-only span log.
class Tracer {
 public:
  Tracer();

  /// RAII wall-clock span; completes (and appends its record) at scope
  /// exit.  Nested scopes on the same thread chain parent ids.
  class Span {
   public:
    Span(Span&& other) noexcept;
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

    /// Attaches a virtual-clock interval to the span.
    void set_sim(double start_sec, double end_sec);
    /// Attaches the span to a causal trace.
    void set_trace(std::uint64_t trace_id) { record_.trace_id = trace_id; }
    std::uint64_t id() const { return record_.id; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::string name, std::string category);

    Tracer* tracer_;
    SpanRecord record_;
    std::chrono::steady_clock::time_point started_;
  };

  /// Opens a RAII span.
  Span scope(std::string name, std::string category);

  /// Appends a virtual-time interval immediately (no wall measurement).
  /// Returns the span id for use as a later `parent`.
  std::uint64_t record_sim(std::string name, std::string category,
                           double sim_start_sec, double sim_end_sec,
                           std::uint64_t parent = 0,
                           std::uint64_t trace_id = 0);

  /// Appends a fully formed record (id assigned when 0); returns its id.
  std::uint64_t append(SpanRecord record);

  /// Snapshot of the recorded spans in completion order.
  std::vector<SpanRecord> spans() const;
  std::size_t size() const;

  /// Microseconds of wall time since the tracer was constructed.
  double wall_now_us() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII wall-clock stopwatch recording its lifetime into a Histogram (and
/// optionally adding to a duration-sum gauge-style counter elsewhere).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  double elapsed_seconds() const;

 private:
  Histogram& sink_;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace emap::obs
