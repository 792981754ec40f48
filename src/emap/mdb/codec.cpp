#include "emap/mdb/codec.hpp"

#include <bit>
#include <cstring>

#include "emap/common/crc32.hpp"
#include "emap/common/error.hpp"

namespace emap::mdb {

void Encoder::write_u8(std::uint8_t value) { bytes_.push_back(value); }

void Encoder::write_u16(std::uint16_t value) {
  bytes_.push_back(static_cast<std::uint8_t>(value & 0xff));
  bytes_.push_back(static_cast<std::uint8_t>(value >> 8));
}

void Encoder::write_u32(std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void Encoder::write_u64(std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<std::uint8_t>((value >> shift) & 0xff));
  }
}

void Encoder::write_f32(float value) {
  std::uint32_t raw = 0;
  std::memcpy(&raw, &value, sizeof(raw));
  write_u32(raw);
}

void Encoder::write_f64(double value) {
  std::uint64_t raw = 0;
  std::memcpy(&raw, &value, sizeof(raw));
  write_u64(raw);
}

void Encoder::write_string(const std::string& value) {
  require(value.size() <= UINT16_MAX, "Encoder: string too long");
  write_u16(static_cast<std::uint16_t>(value.size()));
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void Encoder::write_bytes(std::span<const std::uint8_t> bytes) {
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
}

void Decoder::need(std::size_t bytes) const {
  if (cursor_ + bytes > bytes_.size()) {
    throw CorruptData("Decoder: truncated input");
  }
}

std::uint8_t Decoder::read_u8() {
  need(1);
  return bytes_[cursor_++];
}

std::uint16_t Decoder::read_u16() {
  need(2);
  std::uint16_t value = static_cast<std::uint16_t>(bytes_[cursor_]) |
                        (static_cast<std::uint16_t>(bytes_[cursor_ + 1]) << 8);
  cursor_ += 2;
  return value;
}

std::uint32_t Decoder::read_u32() {
  need(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(bytes_[cursor_ + i]) << (8 * i);
  }
  cursor_ += 4;
  return value;
}

std::uint64_t Decoder::read_u64() {
  need(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(bytes_[cursor_ + i]) << (8 * i);
  }
  cursor_ += 8;
  return value;
}

float Decoder::read_f32() {
  const std::uint32_t raw = read_u32();
  float value = 0.0f;
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

double Decoder::read_f64() {
  const std::uint64_t raw = read_u64();
  double value = 0.0;
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}

std::string Decoder::read_string() {
  const std::uint16_t size = read_u16();
  need(size);
  std::string value(reinterpret_cast<const char*>(bytes_.data()) + cursor_,
                    size);
  cursor_ += size;
  return value;
}

std::vector<std::uint8_t> encode_record(const SignalSet& set) {
  Encoder payload;
  payload.write_u64(set.id);
  payload.write_u8(set.anomalous ? 1 : 0);
  payload.write_u8(set.class_tag);
  payload.write_string(set.source);
  payload.write_u32(set.source_recording);
  payload.write_f64(set.start_sec);
  require(set.samples.size() <= UINT32_MAX, "encode_record: too many samples");
  payload.write_u32(static_cast<std::uint32_t>(set.samples.size()));
  for (const float sample : set.samples) {
    payload.write_f32(sample);
  }

  const auto& body = payload.bytes();
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 8);
  const auto size = static_cast<std::uint32_t>(body.size());
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((size >> shift) & 0xff));
  }
  out.insert(out.end(), body.begin(), body.end());
  const std::uint32_t crc = crc32(body.data(), body.size());
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((crc >> shift) & 0xff));
  }
  return out;
}

SignalSet Decoder::read_record() {
  const std::uint32_t payload_size = read_u32();
  need(std::size_t{payload_size} + 4);  // payload + trailing CRC
  const std::size_t payload_start = cursor_;
  const std::uint32_t expected_crc =
      crc32(bytes_.data() + payload_start, payload_size);

  SignalSet set;
  set.id = read_u64();
  set.anomalous = read_u8() != 0;
  set.class_tag = read_u8();
  set.source = read_string();
  set.source_recording = read_u32();
  set.start_sec = read_f64();
  const std::uint32_t count = read_u32();
  if (cursor_ + static_cast<std::size_t>(count) * 4 >
      payload_start + payload_size) {
    throw CorruptData("Decoder: record sample count exceeds payload");
  }
  set.samples.resize(count);
  if constexpr (std::endian::native == std::endian::little) {
    // The file's f32 run is already the in-memory image: one copy.
    if (count > 0) {
      std::memcpy(set.samples.data(), bytes_.data() + cursor_,
                  static_cast<std::size_t>(count) * sizeof(float));
    }
    cursor_ += static_cast<std::size_t>(count) * sizeof(float);
  } else {
    for (float& sample : set.samples) {
      sample = read_f32();
    }
  }
  if (cursor_ != payload_start + payload_size) {
    throw CorruptData("Decoder: record payload size mismatch");
  }
  const std::uint32_t stored_crc = read_u32();
  if (stored_crc != expected_crc) {
    throw CorruptData("Decoder: record CRC mismatch");
  }
  return set;
}

}  // namespace emap::mdb
