// Binary serialization of signal-sets and stores.
//
// Little-endian, CRC-protected record framing:
//   store file  := magic "EMDB" | u32 version | StoreInfo | u64 count |
//                  record*
//   record      := u32 payload_size | payload | u32 crc32(payload)
//   payload     := u64 id | u8 anomalous | u8 class_tag | str source |
//                  u32 source_recording | f64 start_sec | u32 n | f32[n]
//   str         := u16 size | bytes
// Samples are f32 on disk and in memory (SignalSet::samples): the source
// data is 16-bit (paper Section V-A), so single precision keeps everything
// it carries, and a decoded store holds exactly the values it was saved
// with.  On little-endian hosts a record's sample run decodes in one copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "emap/mdb/signal_set.hpp"

namespace emap::mdb {

/// Store-level metadata persisted alongside the records.
struct StoreInfo {
  double base_fs_hz = 256.0;
  std::uint32_t slice_length = kSignalSetLength;
};

/// Serializes one signal-set record (size + payload + CRC).
std::vector<std::uint8_t> encode_record(const SignalSet& set);

/// Cursor-based reader used for both single records and whole files.
class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  /// Parses the next record; throws CorruptData on framing/CRC errors.
  SignalSet read_record();

  bool at_end() const { return cursor_ >= bytes_.size(); }
  std::size_t cursor() const { return cursor_; }
  void seek(std::size_t offset) { cursor_ = offset; }

  std::uint8_t read_u8();
  std::uint16_t read_u16();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  float read_f32();
  double read_f64();
  std::string read_string();

 private:
  void need(std::size_t bytes) const;

  const std::vector<std::uint8_t>& bytes_;
  std::size_t cursor_ = 0;
};

/// Append-only writer mirror of Decoder.
class Encoder {
 public:
  void write_u8(std::uint8_t value);
  void write_u16(std::uint16_t value);
  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  void write_f32(float value);
  void write_f64(double value);
  void write_string(const std::string& value);
  /// Appends a run of bytes the caller has already laid out, in one copy.
  void write_bytes(std::span<const std::uint8_t> bytes);
  /// Makes room for `bytes` more bytes of writes without reallocating.
  void reserve(std::size_t bytes) { bytes_.reserve(bytes_.size() + bytes); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace emap::mdb
