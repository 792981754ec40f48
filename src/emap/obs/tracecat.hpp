// Trace reconstruction: per-window critical paths from the span log.
//
// The tracing layer (trace_context.hpp) stamps every span with the 64-bit
// trace id of the window that caused it, on both sides of the wire.  This
// module is the read side: it loads the span JSONL (obs::write_spans_jsonl),
// groups spans by trace id, and decomposes each window's initial-response
// latency into its Eq. 4 legs — uplink, scan, downlink — plus the
// edge-side compute and any retry/backoff tax.  `emapctl trace` is a thin
// wrapper over these functions.
//
// Loading is lenient: lines that are not valid flat JSON objects (or miss
// required fields) are skipped and counted, never fatal — a file written
// on the way down may legitimately end mid-line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "emap/obs/span.hpp"

namespace emap::obs {

/// Parses one flat (non-nested) JSON object line into key -> raw value
/// (strings unescaped, numbers kept as text).  Returns false on anything
/// that is not a syntactically complete flat object.  Exposed for tests.
bool parse_flat_json(const std::string& line,
                     std::map<std::string, std::string>& fields);

/// Result of a lenient JSONL load: the parsed records plus how many lines
/// were skipped as malformed.
struct SpanLoadResult {
  std::vector<SpanRecord> spans;
  std::size_t skipped_lines = 0;
};

/// Loads a span JSONL file (write_spans_jsonl output) back into the
/// records it was written from.  A line without `sim_start_sec` loads at
/// -1 (no virtual-clock stamp).  Throws IoError when the file cannot be
/// opened; malformed lines are skipped, not fatal.
SpanLoadResult load_spans_jsonl(const std::filesystem::path& path);

/// One window's reconstructed critical path.
struct TraceCriticalPath {
  std::uint64_t trace_id = 0;
  std::int64_t window_index = -1;    ///< from the window_N root span; -1 unknown
  double window_start_sec = -1.0;
  // Eq. 4 legs (SimTime seconds summed over this trace's spans).
  double uplink_sec = 0.0;    ///< delta_EC (category "upload")
  double scan_sec = 0.0;      ///< cloud search (category "cloud-search")
  double downlink_sec = 0.0;  ///< delta_CE (category "download")
  // Off-path decomposition.
  double edge_sec = 0.0;      ///< edge compute (categories "edge-track",
                              ///< "prediction", "filter")
  double retry_sec = 0.0;     ///< timeouts + backoffs (category "retry")
  std::size_t spans = 0;
  bool has_edge = false;   ///< at least one edge-side span
  bool has_cloud = false;  ///< at least one cloud-side span

  /// Reconstructed initial-response latency (the Eq. 4 sum).
  double initial_response_sec() const {
    return uplink_sec + scan_sec + downlink_sec;
  }
  /// Edge and cloud both contributed spans under this one trace id — the
  /// cross-boundary propagation actually happened.
  bool complete() const { return has_edge && has_cloud; }
};

/// Groups spans by trace id and decomposes each group, ordered by window
/// index (unknown-window traces last).  Untraced spans (trace id 0) are
/// ignored.
std::vector<TraceCriticalPath> build_critical_paths(
    const std::vector<SpanRecord>& spans);

/// Human-readable per-window table plus a totals row.
std::string critical_path_table(const std::vector<TraceCriticalPath>& paths);

/// One JSONL line per trace (machine-readable form of the table).
std::string critical_path_jsonl(const std::vector<TraceCriticalPath>& paths);

}  // namespace emap::obs
