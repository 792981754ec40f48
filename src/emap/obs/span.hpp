// Span tracing: hierarchical intervals on the pipeline's virtual SimTime
// clock.
//
// A Tracer collects SpanRecords logged by record_sim() (the Fig. 9
// timeline).  The ASCII Fig. 9 chart and the Chrome trace_event exporter
// both draw this one span log (see export.hpp).  Wall-clock layer timing
// is obs::Profiler's job (profiler.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace emap::obs {

class Histogram;

/// One traced interval on the virtual clock.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root span
  std::uint64_t trace_id = 0;    ///< causal chain (obs::TraceContext); 0 = none
  std::string name;              ///< instance label, e.g. "delta_EC"
  std::string category;          ///< row/track, e.g. "upload"
  double sim_start_sec = 0.0;
  double sim_dur_sec = 0.0;
};

/// Thread-safe append-only span log.
class Tracer {
 public:
  /// Appends a virtual-time interval.  Returns the span id for use as a
  /// later `parent`.
  std::uint64_t record_sim(std::string name, std::string category,
                           double sim_start_sec, double sim_end_sec,
                           std::uint64_t parent = 0,
                           std::uint64_t trace_id = 0);

  /// Snapshot of the recorded spans in record order.
  std::vector<SpanRecord> spans() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
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
