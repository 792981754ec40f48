#include "emap/mdb/codec.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::mdb {
namespace {

SignalSet make_set(std::uint64_t id = 1) {
  SignalSet set;
  set.id = id;
  set.anomalous = true;
  set.class_tag = 2;
  set.source = "physionet-chbmit";
  set.source_recording = 7;
  set.start_sec = 12.5;
  set.samples = testing::to_f32(testing::noise(id, kSignalSetLength, 5.0));
  return set;
}

TEST(Codec, RecordRoundTrip) {
  const auto set = make_set();
  const auto bytes = encode_record(set);
  Decoder decoder(bytes);
  const auto decoded = decoder.read_record();
  EXPECT_EQ(decoded.id, set.id);
  EXPECT_EQ(decoded.anomalous, set.anomalous);
  EXPECT_EQ(decoded.class_tag, set.class_tag);
  EXPECT_EQ(decoded.source, set.source);
  EXPECT_EQ(decoded.source_recording, set.source_recording);
  EXPECT_DOUBLE_EQ(decoded.start_sec, set.start_sec);
  // Samples are f32 in memory and on disk: the round trip is bit-exact.
  ASSERT_EQ(decoded.samples.size(), set.samples.size());
  EXPECT_EQ(std::memcmp(decoded.samples.data(), set.samples.data(),
                        set.samples.size() * sizeof(float)),
            0);
  EXPECT_TRUE(decoder.at_end());
}

TEST(Codec, MultipleRecordsDecodeInOrder) {
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto record = encode_record(make_set(id));
    bytes.insert(bytes.end(), record.begin(), record.end());
  }
  Decoder decoder(bytes);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(decoder.read_record().id, id);
  }
  EXPECT_TRUE(decoder.at_end());
}

TEST(Codec, CrcDetectsPayloadCorruption) {
  auto bytes = encode_record(make_set());
  bytes[20] ^= 0xff;  // flip a payload byte
  Decoder decoder(bytes);
  EXPECT_THROW(decoder.read_record(), CorruptData);
}

TEST(Codec, CrcDetectsTrailerCorruption) {
  auto bytes = encode_record(make_set());
  bytes[bytes.size() - 1] ^= 0x01;
  Decoder decoder(bytes);
  EXPECT_THROW(decoder.read_record(), CorruptData);
}

TEST(Codec, TruncatedRecordThrows) {
  auto bytes = encode_record(make_set());
  bytes.resize(bytes.size() / 2);
  Decoder decoder(bytes);
  EXPECT_THROW(decoder.read_record(), CorruptData);
}

TEST(Codec, ForgedPayloadSizeNearFourGigabytesThrows) {
  // payload_size + 4 must not wrap in 32 bits: a size within 4 of 2^32
  // would otherwise pass the bounds check and drive the CRC off the end.
  for (const std::uint32_t size : {0xFFFFFFFCu, 0xFFFFFFFEu, 0xFFFFFFFFu}) {
    auto bytes = encode_record(make_set());
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<std::uint8_t>(size >> (8 * i));
    }
    Decoder decoder(bytes);
    EXPECT_THROW(decoder.read_record(), CorruptData) << "size " << size;
  }
}

TEST(Codec, EveryTruncationPointFailsCleanly) {
  // Fuzz-style sweep: no truncation length may crash or mis-decode.
  const auto bytes = encode_record(make_set());
  for (std::size_t cut = 0; cut < bytes.size(); cut += 97) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + cut);
    Decoder decoder(truncated);
    EXPECT_THROW(decoder.read_record(), CorruptData) << "cut=" << cut;
  }
}

TEST(Codec, PrimitiveRoundTrip) {
  Encoder encoder;
  encoder.write_u8(0xAB);
  encoder.write_u16(0xBEEF);
  encoder.write_u32(0xDEADBEEF);
  encoder.write_u64(0x0123456789ABCDEFULL);
  encoder.write_f32(3.5f);
  encoder.write_f64(-2.25);
  encoder.write_string("hello");
  const auto bytes = encoder.take();
  Decoder decoder(bytes);
  EXPECT_EQ(decoder.read_u8(), 0xAB);
  EXPECT_EQ(decoder.read_u16(), 0xBEEF);
  EXPECT_EQ(decoder.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(decoder.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_FLOAT_EQ(decoder.read_f32(), 3.5f);
  EXPECT_DOUBLE_EQ(decoder.read_f64(), -2.25);
  EXPECT_EQ(decoder.read_string(), "hello");
  EXPECT_TRUE(decoder.at_end());
}

TEST(Codec, ReadPastEndThrows) {
  const std::vector<std::uint8_t> bytes = {1, 2};
  Decoder decoder(bytes);
  EXPECT_THROW(decoder.read_u32(), CorruptData);
}

}  // namespace
}  // namespace emap::mdb
