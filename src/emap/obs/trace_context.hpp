// Causal trace identity carried across the edge <-> cloud boundary.
//
// A TraceContext names the causal chain a message or span belongs to: a
// 64-bit trace id (one per pipeline window) plus the span id of the
// parent on the originating side.  Trace ids are minted deterministically
// from a seed and the window index, so two runs with the same seed
// produce the same ids and the bit-identity tests survive with tracing
// enabled.  trace_id == 0 means "no trace": the wire codec writes zeros
// into the message's trace header.
#pragma once

#include <cstdint>
#include <string>

namespace emap::obs {

/// Seed used when the caller does not pick one ("EMAPtrc" + version).
inline constexpr std::uint64_t kDefaultTraceSeed = 0x454d41507472'6331ull;

/// Identity of one causal chain plus the parent span on the sender side.
struct TraceContext {
  std::uint64_t trace_id = 0;     ///< 0 = untraced
  std::uint64_t parent_span = 0;  ///< span id on the originating side

  bool valid() const { return trace_id != 0; }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Deterministic per-window trace id: a splitmix64-style mix of the run
/// seed and the window index.  Never returns 0 (0 is the "untraced"
/// sentinel), and distinct windows under one seed get distinct ids.
std::uint64_t mint_trace_id(std::uint64_t seed, std::uint64_t window_index);

/// Fixed-width lowercase hex rendering (16 chars), the form used in the
/// span log and decision record; 64-bit ids do not survive a double-typed
/// JSON number field.
std::string trace_id_hex(std::uint64_t trace_id);

/// Inverse of trace_id_hex; returns 0 on malformed input (fail closed —
/// 0 is the untraced sentinel, so bad ids simply group nowhere).
std::uint64_t parse_trace_id_hex(const std::string& hex);

}  // namespace emap::obs
