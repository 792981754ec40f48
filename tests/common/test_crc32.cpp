#include "emap/common/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace emap {
namespace {

// Bytewise reference CRC-32 (reflected IEEE polynomial, bit by bit): the
// oracle the table-driven implementation must match on every length and
// alignment.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xedb88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  std::uint32_t x = 0x9e3779b9u;
  for (auto& byte : bytes) {
    x = x * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  return bytes;
}

TEST(Crc32, StandardCheckValue) {
  const std::string message = "123456789";
  EXPECT_EQ(crc32(message.data(), message.size()), 0xCBF43926u);
}

TEST(Crc32, EmptyMessage) {
  EXPECT_EQ(crc32(nullptr, 0), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string message = "the quick brown fox jumps over the lazy dog";
  Crc32 incremental;
  incremental.update(message.data(), 10);
  incremental.update(message.data() + 10, message.size() - 10);
  EXPECT_EQ(incremental.value(), crc32(message.data(), message.size()));
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::string a = "hello world";
  std::string b = a;
  b[4] ^= 0x01;
  EXPECT_NE(crc32(a.data(), a.size()), crc32(b.data(), b.size()));
}

TEST(Crc32, SensitiveToReordering) {
  const std::string a = "abcd";
  const std::string b = "dcba";
  EXPECT_NE(crc32(a.data(), a.size()), crc32(b.data(), b.size()));
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::uint8_t> buffer = pattern_bytes(64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::uint8_t* data = buffer.data() + offset;
      EXPECT_EQ(crc32(data, length), reference_crc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, SplitUpdatesMatchBytewiseReference) {
  const std::vector<std::uint8_t> buffer = pattern_bytes(200);
  const std::uint32_t expected = reference_crc32(buffer.data(), buffer.size());
  // Every single split point, then uneven multi-way splits that leave the
  // eight-byte steps misaligned with the message.
  for (std::size_t split = 0; split <= buffer.size(); ++split) {
    Crc32 crc;
    crc.update(buffer.data(), split);
    crc.update(buffer.data() + split, buffer.size() - split);
    EXPECT_EQ(crc.value(), expected) << "split at " << split;
  }
  for (const std::size_t step : {1u, 3u, 7u, 9u, 13u, 64u}) {
    Crc32 crc;
    for (std::size_t at = 0; at < buffer.size(); at += step) {
      crc.update(buffer.data() + at, std::min(step, buffer.size() - at));
    }
    EXPECT_EQ(crc.value(), expected) << "step " << step;
  }
}

}  // namespace
}  // namespace emap
