// CRC-32 (IEEE 802.3 polynomial) guarding MDB records, checkpoint snapshots
// and wire messages.  Computed eight bytes per step (slicing-by-8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace emap {

/// Incremental CRC-32 accumulator.
///
/// Usage: Crc32 crc; crc.update(bytes); auto digest = crc.value();
/// The empty-message digest is 0x00000000 and "123456789" hashes to
/// 0xCBF43926 (the standard check value).
class Crc32 {
 public:
  /// Folds `bytes` into the running checksum.
  void update(std::span<const std::byte> bytes);

  /// Convenience overload for raw buffers.
  void update(const void* data, std::size_t size);

  /// Final digest for everything fed so far.
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// One-shot CRC-32 of a byte buffer.
std::uint32_t crc32(const void* data, std::size_t size);

}  // namespace emap
