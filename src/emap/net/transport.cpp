#include "emap/net/transport.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "emap/common/crc32.hpp"
#include "emap/common/error.hpp"
#include "emap/obs/profiler.hpp"

namespace emap::net {
namespace {

constexpr std::uint32_t kUploadMagic = 0x32554d45u;    // "EMU2"
constexpr std::uint32_t kDownloadMagic = 0x32444d45u;  // "EMD2"
constexpr std::size_t kCrcBytes = 4;
/// trace_id(8) + parent_span(8) right after the magic.
constexpr std::size_t kTraceHeaderBytes = 16;
/// Fixed bytes per correlation entry before its samples:
/// id(8) + omega(4) + beta(4) + anomalous(1) + class(1) + scale(4) +
/// count(4).
constexpr std::size_t kEntryHeaderBytes = 26;

void write_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void write_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void write_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void write_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t raw = 0;
  std::memcpy(&raw, &v, sizeof(raw));
  write_u32(out, raw);
}

void write_trace(std::vector<std::uint8_t>& out,
                 const obs::TraceContext& trace) {
  write_u64(out, trace.trace_id);
  write_u64(out, trace.parent_span);
}

/// Appends the CRC-32 of everything encoded so far.
void seal(std::vector<std::uint8_t>& out) {
  write_u32(out, crc32(out.data(), out.size()));
}

/// Verifies the CRC-32 trailer and returns the protected payload view.
std::span<const std::uint8_t> check_seal(std::span<const std::uint8_t> bytes,
                                         const char* what) {
  if (bytes.size() < kCrcBytes) {
    throw CorruptData(std::string(what) + ": message shorter than its CRC");
  }
  const std::size_t payload_size = bytes.size() - kCrcBytes;
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(bytes[payload_size + i]) << (8 * i);
  }
  if (stored != crc32(bytes.data(), payload_size)) {
    throw CorruptData(std::string(what) + ": CRC mismatch");
  }
  return bytes.first(payload_size);
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[cursor_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[cursor_] | (static_cast<std::uint16_t>(bytes_[cursor_ + 1]) << 8));
    cursor_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[cursor_ + i]) << (8 * i);
    }
    cursor_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[cursor_ + i]) << (8 * i);
    }
    cursor_ += 8;
    return v;
  }
  float f32() {
    const std::uint32_t raw = u32();
    float v = 0.0f;
    std::memcpy(&v, &raw, sizeof(v));
    return v;
  }
  /// A zero trace id reads as the invalid (all-zero) context.
  obs::TraceContext trace() {
    obs::TraceContext context;
    context.trace_id = u64();
    context.parent_span = u64();
    return context.valid() ? context : obs::TraceContext{};
  }
  bool at_end() const { return cursor_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  void need(std::size_t n) const {
    if (cursor_ + n > bytes_.size()) {
      throw CorruptData("transport: truncated message");
    }
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

// Quantizes samples to int16 with a shared scale.  Returns the scale.
float quantize(const std::vector<double>& samples,
               std::vector<std::uint8_t>& out) {
  double peak = 1e-9;
  for (double s : samples) {
    peak = std::max(peak, std::abs(s));
  }
  const float scale = static_cast<float>(peak / 32767.0);
  write_f32(out, scale);
  write_u32(out, static_cast<std::uint32_t>(samples.size()));
  for (double s : samples) {
    const auto q = static_cast<std::int16_t>(
        std::clamp(std::lround(s / scale), -32767L, 32767L));
    write_u16(out, static_cast<std::uint16_t>(q));
  }
  return scale;
}

std::vector<double> dequantize(Reader& reader) {
  const float scale = reader.f32();
  if (!(scale > 0.0f) || !std::isfinite(scale)) {
    throw CorruptData("transport: bad quantization scale");
  }
  const std::uint32_t count = reader.u32();
  // Validate the declared count against the bytes actually present before
  // allocating: a corrupted count field must throw, not request gigabytes.
  if (count > reader.remaining() / 2) {
    throw CorruptData("transport: sample count exceeds message size");
  }
  std::vector<double> samples(count, 0.0);
  for (std::uint32_t i = 0; i < count; ++i) {
    samples[i] =
        static_cast<double>(static_cast<std::int16_t>(reader.u16())) * scale;
  }
  return samples;
}

}  // namespace

std::size_t wire_size(const SignalUploadMessage& message) {
  // magic + trace header + sequence + scale + count + int16 samples + crc
  return 4 + kTraceHeaderBytes + 4 + 4 + 4 + 2 * message.samples.size() +
         kCrcBytes;
}

std::size_t wire_size(const CorrelationSetMessage& message) {
  // magic + trace header + sequence + count + crc
  std::size_t size = 4 + kTraceHeaderBytes + 4 + 4 + kCrcBytes;
  for (const auto& entry : message.entries) {
    size += kEntryHeaderBytes + 2 * entry.samples.size();
  }
  return size;
}

std::vector<std::uint8_t> encode_upload(const SignalUploadMessage& message) {
  EMAP_PROFILE_SCOPE("codec_encode");
  std::vector<std::uint8_t> out;
  out.reserve(wire_size(message));
  write_u32(out, kUploadMagic);
  write_trace(out, message.trace);
  write_u32(out, message.sequence);
  quantize(message.samples, out);
  seal(out);
  return out;
}

SignalUploadMessage decode_upload(std::span<const std::uint8_t> bytes) {
  EMAP_PROFILE_SCOPE("codec_decode");
  Reader reader(check_seal(bytes, "decode_upload"));
  if (reader.u32() != kUploadMagic) {
    throw CorruptData("decode_upload: bad magic");
  }
  SignalUploadMessage message;
  message.trace = reader.trace();
  message.sequence = reader.u32();
  message.samples = dequantize(reader);
  if (!reader.at_end()) {
    throw CorruptData("decode_upload: trailing bytes");
  }
  return message;
}

std::vector<std::uint8_t> encode_correlation_set(
    const CorrelationSetMessage& message) {
  EMAP_PROFILE_SCOPE("codec_encode");
  std::vector<std::uint8_t> out;
  out.reserve(wire_size(message));
  write_u32(out, kDownloadMagic);
  write_trace(out, message.trace);
  write_u32(out, message.request_sequence);
  write_u32(out, static_cast<std::uint32_t>(message.entries.size()));
  for (const auto& entry : message.entries) {
    write_u64(out, entry.set_id);
    write_f32(out, entry.omega);
    write_u32(out, entry.beta);
    out.push_back(entry.anomalous);
    out.push_back(entry.class_tag);
    quantize(entry.samples, out);
  }
  seal(out);
  return out;
}

CorrelationSetMessage decode_correlation_set(
    std::span<const std::uint8_t> bytes) {
  EMAP_PROFILE_SCOPE("codec_decode");
  Reader reader(check_seal(bytes, "decode_correlation_set"));
  if (reader.u32() != kDownloadMagic) {
    throw CorruptData("decode_correlation_set: bad magic");
  }
  CorrelationSetMessage message;
  message.trace = reader.trace();
  message.request_sequence = reader.u32();
  const std::uint32_t count = reader.u32();
  if (count > reader.remaining() / kEntryHeaderBytes) {
    throw CorruptData("decode_correlation_set: entry count exceeds message");
  }
  message.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CorrelationEntry entry;
    entry.set_id = reader.u64();
    entry.omega = reader.f32();
    entry.beta = reader.u32();
    entry.anomalous = reader.u8();
    entry.class_tag = reader.u8();
    entry.samples = dequantize(reader);
    message.entries.push_back(std::move(entry));
  }
  if (!reader.at_end()) {
    throw CorruptData("decode_correlation_set: trailing bytes");
  }
  return message;
}

}  // namespace emap::net
