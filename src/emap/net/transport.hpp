// Wire messages exchanged between edge and cloud.
//
// The paper transmits 16-bit samples (Section V-A), so both messages
// quantize doubles to int16 with a per-message scale factor.  wire_size()
// of these encodings is what the Channel converts to transfer time; the
// encode/decode pair is also exercised end-to-end by the pipeline so the
// quantization loss is part of the reproduced system.
//
// Every encoding carries a CRC-32 trailer over the preceding bytes.  The
// link model can flip bits in flight (net::FaultInjector's corrupt fault);
// without end-to-end integrity a flipped sample byte would silently load a
// damaged correlation set.  decode_* verifies the checksum before parsing,
// so any in-flight mutation — truncation, bit-flips, garbage — surfaces as
// CorruptData for the retry layer to handle.
//
// decode_* takes std::span so the injector can corrupt an encoded buffer
// in place and the decoder can reject it without an intermediate copy.
//
// Layout: every message carries its obs::TraceContext (trace_id +
// parent_span) right after the magic, inside the CRC seal.  An untraced
// message writes zeros there, so traced and untraced runs move the same
// bytes and take the same transfer time; decode_* reads a zero trace id
// as an invalid (all-zero) context.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "emap/obs/trace_context.hpp"

namespace emap::net {

/// Edge -> cloud: one second of filtered input (256 samples at 16 bits).
struct SignalUploadMessage {
  std::uint32_t sequence = 0;       ///< time-step index N
  obs::TraceContext trace;          ///< causal chain; invalid = untraced
  std::vector<double> samples;      ///< filtered input window
};

/// One tracked candidate inside the correlation-set download.
struct CorrelationEntry {
  std::uint64_t set_id = 0;
  float omega = 0.0f;               ///< cross-correlation at the match
  std::uint32_t beta = 0;           ///< matching offset within the set
  std::uint8_t anomalous = 0;       ///< A(S_P)
  std::uint8_t class_tag = 0;
  std::vector<double> samples;      ///< the full 1000-sample signal-set
};

/// Cloud -> edge: the signal correlation set T (top-100 matches).
struct CorrelationSetMessage {
  std::uint32_t request_sequence = 0;
  obs::TraceContext trace;          ///< echoed from the request upload
  std::vector<CorrelationEntry> entries;
};

/// Serialized sizes in bytes (pre-framing, including the CRC trailer).
std::size_t wire_size(const SignalUploadMessage& message);
std::size_t wire_size(const CorrelationSetMessage& message);

/// Encode/decode with 16-bit sample quantization and a CRC-32 trailer.
/// decode_* throws CorruptData on malformed or mutated input; declared
/// counts are validated against the bytes actually present before any
/// allocation, so corrupt length fields cannot trigger OOM.
std::vector<std::uint8_t> encode_upload(const SignalUploadMessage& message);
SignalUploadMessage decode_upload(std::span<const std::uint8_t> bytes);

std::vector<std::uint8_t> encode_correlation_set(
    const CorrelationSetMessage& message);
CorrelationSetMessage decode_correlation_set(
    std::span<const std::uint8_t> bytes);

}  // namespace emap::net
