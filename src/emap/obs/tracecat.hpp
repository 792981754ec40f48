// Trace reconstruction: per-window critical paths from span + flight logs.
//
// The tracing layer (trace_context.hpp) stamps every span with the 64-bit
// trace id of the window that caused it, on both sides of the wire.  This
// module is the read side: it loads the span JSONL (obs::write_spans_jsonl)
// and flight-recorder dumps (obs::FlightRecorder::trigger_dump), groups
// records by trace id, and decomposes each window's initial-response
// latency into its Eq. 4 legs — uplink, cloud queue wait, scan, downlink —
// plus the edge-side compute and any retry/backoff tax.  `emapctl trace`
// is a thin wrapper over these functions.
//
// Loading is lenient: lines that are not valid flat JSON objects (or miss
// required fields) are skipped and counted, never fatal — a flight dump
// written on the way down may legitimately end mid-line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace emap::obs {

/// One span record parsed back from the spans JSONL (obs::span_json).
struct ParsedSpan {
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace_id = 0;  ///< decoded from the 16-hex-char field
  std::string name;
  std::string category;
  double sim_start_sec = -1.0;
  double sim_dur_sec = 0.0;
};

/// One flight-recorder event parsed back from a dump (obs::flight_event_json).
struct ParsedFlightEvent {
  std::uint64_t seq = 0;
  std::string type;
  std::string label;
  double t_sec = -1.0;
  std::uint64_t trace_id = 0;
  double a = 0.0;
  double b = 0.0;
};

/// Parses one flat (non-nested) JSON object line into key -> raw value
/// (strings unescaped, numbers kept as text).  Returns false on anything
/// that is not a syntactically complete flat object.  Exposed for tests.
bool parse_flat_json(const std::string& line,
                     std::map<std::string, std::string>& fields);

/// Result of a lenient JSONL load: the parsed records plus how many lines
/// were skipped as malformed.
struct SpanLoadResult {
  std::vector<ParsedSpan> spans;
  std::size_t skipped_lines = 0;
};
struct FlightLoadResult {
  std::vector<ParsedFlightEvent> events;
  std::string dump_reason;  ///< from the dump's header line, if present
  std::size_t skipped_lines = 0;
};

/// Loads a span JSONL file (write_spans_jsonl output).  Throws IoError when
/// the file cannot be opened; malformed lines are skipped, not fatal.
SpanLoadResult load_spans_jsonl(const std::filesystem::path& path);

/// Loads a flight-recorder dump.  The header line (`{"flight_dump":...}`)
/// supplies dump_reason; event lines follow.  Same leniency as spans.
FlightLoadResult load_flight_jsonl(const std::filesystem::path& path);

/// One window's reconstructed critical path.
struct TraceCriticalPath {
  std::uint64_t trace_id = 0;
  std::int64_t window_index = -1;    ///< from the window_N root span; -1 unknown
  double window_start_sec = -1.0;
  // Eq. 4 legs (SimTime seconds summed over this trace's spans).
  double uplink_sec = 0.0;    ///< delta_EC (category "upload")
  double queue_sec = 0.0;     ///< cloud queue wait (name "queue_wait")
  double scan_sec = 0.0;      ///< cloud search (category "cloud-search" /
                              ///< CloudService "cloud_scan")
  double downlink_sec = 0.0;  ///< delta_CE (category "download")
  // Off-path decomposition.
  double edge_sec = 0.0;      ///< edge compute (categories "edge-track",
                              ///< "prediction", "filter")
  double retry_sec = 0.0;     ///< timeouts + backoffs (category "retry")
  std::size_t spans = 0;
  std::size_t flight_events = 0;
  bool has_edge = false;   ///< at least one edge-side span
  bool has_cloud = false;  ///< at least one cloud-side span

  /// Reconstructed initial-response latency (the Eq. 4 sum).
  double initial_response_sec() const {
    return uplink_sec + queue_sec + scan_sec + downlink_sec;
  }
  /// Edge and cloud both contributed spans under this one trace id — the
  /// cross-boundary propagation actually happened.
  bool complete() const { return has_edge && has_cloud; }
};

/// Groups spans (and optional flight events) by trace id and decomposes
/// each group, ordered by window index (unknown-window traces last).
/// Untraced records (trace id 0) are ignored.
std::vector<TraceCriticalPath> build_critical_paths(
    const std::vector<ParsedSpan>& spans,
    const std::vector<ParsedFlightEvent>& events = {});

/// Human-readable per-window table plus a totals row.
std::string critical_path_table(const std::vector<TraceCriticalPath>& paths);

/// One JSONL line per trace (machine-readable form of the table).
std::string critical_path_jsonl(const std::vector<TraceCriticalPath>& paths);

}  // namespace emap::obs
