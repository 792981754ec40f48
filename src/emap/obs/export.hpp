// Telemetry exporters.
//
// Three wire formats out of one span log + one metric registry:
//  - Chrome trace_event JSON (open in chrome://tracing or ui.perfetto.dev)
//    with one named track per span category, mirroring the Fig. 9 rows;
//  - Prometheus text exposition (counters, gauges, cumulative histogram
//    buckets with only the populated `le` bounds emitted);
//  - compact JSONL records for run-summary / bench-trajectory files.
// Plus an aligned human-readable end-of-run table and the
// sim::TimelineTrace view that makes the legacy ASCII Gantt a projection
// of the span log.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "emap/obs/metrics.hpp"
#include "emap/obs/span.hpp"
#include "emap/sim/trace.hpp"

namespace emap::obs {

/// Chrome trace_event JSON of the span log.  Spans with a virtual-clock
/// stamp are placed at their SimTime (µs scale); wall-only spans at their
/// wall offset.  Categories become named tracks via thread_name metadata.
std::string to_chrome_trace(const Tracer& tracer);
void write_chrome_trace(const std::filesystem::path& path,
                        const Tracer& tracer);

/// Coerces `name` into a legal Prometheus identifier: metric names match
/// [a-zA-Z_:][a-zA-Z0-9_:]*, label names the same minus the colons.
/// Illegal characters are replaced with '_', a leading digit gains a '_'
/// prefix, and an empty name collapses to "_".
std::string prometheus_sanitize_name(const std::string& name,
                                     bool is_label = false);

/// Prometheus text-exposition format (version 0.0.4) of the registry.
/// Metric and label names are sanitized via prometheus_sanitize_name;
/// labels whose key is empty are dropped rather than emitted.
std::string to_prometheus(const MetricsRegistry& registry);
void write_prometheus(const std::filesystem::path& path,
                      const MetricsRegistry& registry);

/// Aligned human-readable table of every registered metric (the
/// `--metrics-dump` end-of-run view).
std::string metrics_table(const MetricsRegistry& registry);

/// Legacy Fig. 9 timeline as a view over the span log: every span whose
/// category names a sim::ActivityKind row and carries a SimTime stamp
/// becomes one activity, in span order.
sim::TimelineTrace timeline_view(const Tracer& tracer);

/// One span as a flat JSON object line.  The machine-readable sibling of
/// the Chrome trace: `emapctl trace` reconstructs per-window critical
/// paths from these lines.  trace_id is emitted as a
/// 16-char hex string (64-bit ids do not survive a JSON double).
std::string span_json(const SpanRecord& span);

/// Writes the whole span log as JSONL, one span_json line per span.
void write_spans_jsonl(const std::filesystem::path& path,
                       const Tracer& tracer);

/// Minimal flat-object JSON writer for the JSONL run-summary format.
class JsonWriter {
 public:
  JsonWriter& field(const std::string& key, double value);
  JsonWriter& field(const std::string& key, std::uint64_t value);
  JsonWriter& field(const std::string& key, const std::string& value);
  /// Without this overload a string literal would silently pick the bool
  /// overload (pointer -> bool is a standard conversion; const char* ->
  /// std::string is user-defined and loses).
  JsonWriter& field(const std::string& key, const char* value);
  JsonWriter& field(const std::string& key, bool value);

  /// The accumulated object as one `{...}` line (no trailing newline).
  std::string str() const;

 private:
  void begin_field(const std::string& key);
  std::string body_;
};

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& text);

/// Appends `line` + '\n' to `path`, creating parent directories as needed.
void append_jsonl_line(const std::filesystem::path& path,
                       const std::string& line);

}  // namespace emap::obs
