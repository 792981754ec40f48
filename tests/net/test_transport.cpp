#include "emap/net/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "emap/common/crc32.hpp"
#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::net {
namespace {

TEST(Transport, UploadRoundTripWithin16BitPrecision) {
  SignalUploadMessage message;
  message.sequence = 42;
  message.samples = testing::noise(1, 256, 7.0);
  const auto decoded = decode_upload(encode_upload(message));
  EXPECT_EQ(decoded.sequence, 42u);
  ASSERT_EQ(decoded.samples.size(), 256u);
  double peak = 0.0;
  for (double s : message.samples) {
    peak = std::max(peak, std::abs(s));
  }
  const double quantum = peak / 32767.0;
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_NEAR(decoded.samples[i], message.samples[i], quantum);
  }
}

TEST(Transport, UploadWireSizeMatchesEncoding) {
  SignalUploadMessage message;
  message.samples = testing::noise(2, 256);
  EXPECT_EQ(encode_upload(message).size(), wire_size(message));
}

TEST(Transport, PaperUploadPayloadIsCompact) {
  // One second of 16-bit samples ~= 512 bytes + small header; this is what
  // makes the < 1 ms upload of Fig. 4a possible.
  SignalUploadMessage message;
  message.samples.assign(256, 1.0);
  EXPECT_LT(wire_size(message), 600u);
}

TEST(Transport, CorrelationSetRoundTrip) {
  CorrelationSetMessage message;
  message.request_sequence = 7;
  for (int i = 0; i < 3; ++i) {
    CorrelationEntry entry;
    entry.set_id = 100 + static_cast<std::uint64_t>(i);
    entry.omega = 0.9f - 0.01f * static_cast<float>(i);
    entry.beta = 12 * static_cast<std::uint32_t>(i);
    entry.anomalous = (i % 2 == 0) ? 1 : 0;
    entry.class_tag = static_cast<std::uint8_t>(i);
    entry.samples = testing::noise(static_cast<std::uint64_t>(i) + 5, 1000,
                                   6.0);
    message.entries.push_back(std::move(entry));
  }
  const auto decoded = decode_correlation_set(encode_correlation_set(message));
  EXPECT_EQ(decoded.request_sequence, 7u);
  ASSERT_EQ(decoded.entries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.entries[i].set_id, message.entries[i].set_id);
    EXPECT_FLOAT_EQ(decoded.entries[i].omega, message.entries[i].omega);
    EXPECT_EQ(decoded.entries[i].beta, message.entries[i].beta);
    EXPECT_EQ(decoded.entries[i].anomalous, message.entries[i].anomalous);
    ASSERT_EQ(decoded.entries[i].samples.size(), 1000u);
  }
}

TEST(Transport, CorrelationSetWireSizeMatchesEncoding) {
  CorrelationSetMessage message;
  CorrelationEntry entry;
  entry.samples = testing::noise(3, 1000);
  message.entries.push_back(entry);
  EXPECT_EQ(encode_correlation_set(message).size(), wire_size(message));
}

TEST(Transport, Top100DownloadPayloadNearPaperScale) {
  // 100 x 1000-sample signal-sets at 16 bits ~= 200 kB.
  CorrelationSetMessage message;
  for (int i = 0; i < 100; ++i) {
    CorrelationEntry entry;
    entry.samples.assign(1000, 1.0);
    message.entries.push_back(std::move(entry));
  }
  const std::size_t size = wire_size(message);
  EXPECT_GT(size, 190'000u);
  EXPECT_LT(size, 220'000u);
}

TEST(Transport, DecodeUploadRejectsBadMagic) {
  SignalUploadMessage message;
  message.samples = testing::noise(4, 16);
  auto bytes = encode_upload(message);
  bytes[0] ^= 0xff;
  EXPECT_THROW(decode_upload(bytes), CorruptData);
}

TEST(Transport, DecodeUploadRejectsTruncation) {
  SignalUploadMessage message;
  message.samples = testing::noise(5, 64);
  auto bytes = encode_upload(message);
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(decode_upload(bytes), CorruptData);
}

TEST(Transport, DecodeUploadRejectsTrailingBytes) {
  SignalUploadMessage message;
  message.samples = testing::noise(6, 64);
  auto bytes = encode_upload(message);
  bytes.push_back(0);
  EXPECT_THROW(decode_upload(bytes), CorruptData);
}

TEST(Transport, DecodeCorrelationSetRejectsCorruptScale) {
  CorrelationSetMessage message;
  CorrelationEntry entry;
  entry.samples = testing::noise(7, 100);
  message.entries.push_back(entry);
  auto bytes = encode_correlation_set(message);
  // Scale field of the first entry sits after magic(4)+trace(16)+seq(4)+
  // count(4)+id(8)+omega(4)+beta(4)+anomalous(1)+class(1) = 46.
  bytes[46] = 0xff;
  bytes[47] = 0xff;
  bytes[48] = 0xff;
  bytes[49] = 0xff;  // NaN scale
  EXPECT_THROW(decode_correlation_set(bytes), CorruptData);
}

TEST(Transport, EmptyCorrelationSetIsValid) {
  CorrelationSetMessage message;
  const auto decoded = decode_correlation_set(encode_correlation_set(message));
  EXPECT_TRUE(decoded.entries.empty());
}

TEST(Transport, ZeroEntrySetRejectsEveryTruncation) {
  // The minimal valid message (header + CRC only): every strict prefix
  // must be rejected, and an intact one must round-trip.
  CorrelationSetMessage message;
  message.request_sequence = 3;
  const auto bytes = encode_correlation_set(message);
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + length);
    EXPECT_THROW(decode_correlation_set(prefix), CorruptData)
        << "prefix length " << length;
  }
  EXPECT_EQ(decode_correlation_set(bytes).request_sequence, 3u);
}

TEST(Transport, DecodeAcceptsSpanOverSubrange) {
  // decode_* takes std::span: decoding from a view into a larger buffer
  // (the receive path after framing removal) must work without a copy.
  SignalUploadMessage message;
  message.sequence = 9;
  message.samples = testing::noise(8, 32);
  const auto encoded = encode_upload(message);
  std::vector<std::uint8_t> framed;
  framed.insert(framed.end(), 7, 0xee);  // fake frame header
  framed.insert(framed.end(), encoded.begin(), encoded.end());
  framed.insert(framed.end(), 5, 0xdd);  // fake frame trailer
  const std::span<const std::uint8_t> view(framed.data() + 7,
                                           encoded.size());
  EXPECT_EQ(decode_upload(view).sequence, 9u);
}

TEST(Transport, PaperScaleSetRoundTripsAndGuardsItsBounds) {
  // Top-100 download at full 1000-sample entries (the paper's maximum):
  // round-trips intact, and dropping even the final byte is rejected.
  CorrelationSetMessage message;
  for (int i = 0; i < 100; ++i) {
    CorrelationEntry entry;
    entry.set_id = static_cast<std::uint64_t>(i);
    entry.samples = testing::noise(static_cast<std::uint64_t>(i), 1000, 4.0);
    message.entries.push_back(std::move(entry));
  }
  auto bytes = encode_correlation_set(message);
  EXPECT_EQ(bytes.size(), wire_size(message));
  const auto decoded = decode_correlation_set(bytes);
  ASSERT_EQ(decoded.entries.size(), 100u);
  EXPECT_EQ(decoded.entries.back().set_id, 99u);
  bytes.pop_back();
  EXPECT_THROW(decode_correlation_set(bytes), CorruptData);
}

TEST(Transport, TracedUploadRoundTripsContextUnderV2) {
  SignalUploadMessage message;
  message.sequence = 11;
  message.trace = {obs::mint_trace_id(obs::kDefaultTraceSeed, 11), 0x5150};
  message.samples = testing::noise(10, 256, 7.0);
  const auto bytes = encode_upload(message);
  EXPECT_EQ(bytes.size(), wire_size(message));
  // The magic "EMU2" leads the frame.
  EXPECT_EQ(bytes[0], 'E');
  EXPECT_EQ(bytes[1], 'M');
  EXPECT_EQ(bytes[2], 'U');
  EXPECT_EQ(bytes[3], '2');
  const auto decoded = decode_upload(bytes);
  EXPECT_EQ(decoded.sequence, 11u);
  EXPECT_EQ(decoded.trace, message.trace);
  EXPECT_EQ(decoded.samples.size(), 256u);
}

TEST(Transport, TracedCorrelationSetRoundTripsContext) {
  CorrelationSetMessage message;
  message.request_sequence = 23;
  message.trace = {0xfeedf00dcafe1234ull, 0x42};
  CorrelationEntry entry;
  entry.set_id = 9;
  entry.samples = testing::noise(11, 100);
  message.entries.push_back(std::move(entry));
  const auto bytes = encode_correlation_set(message);
  EXPECT_EQ(bytes.size(), wire_size(message));
  EXPECT_EQ(bytes[3], '2');  // "EMD2"
  const auto decoded = decode_correlation_set(bytes);
  EXPECT_EQ(decoded.request_sequence, 23u);
  EXPECT_EQ(decoded.trace, message.trace);
  ASSERT_EQ(decoded.entries.size(), 1u);
  EXPECT_EQ(decoded.entries[0].set_id, 9u);
}

TEST(Transport, UntracedMessagesCarryAZeroTraceHeader) {
  // One layout: an untraced message is the traced one with zeros in the
  // 16-byte trace header, so tracing never changes the bytes on the link
  // or their transfer time.  Decode yields the invalid (all-zero) context.
  SignalUploadMessage untraced;
  untraced.sequence = 1;
  untraced.samples = testing::noise(12, 64);
  SignalUploadMessage traced = untraced;
  traced.trace = {0xabcull, 0x1ull};
  const auto zero = encode_upload(untraced);
  const auto with_trace = encode_upload(traced);
  EXPECT_EQ(zero.size(), wire_size(untraced));
  EXPECT_EQ(zero.size(), with_trace.size());
  EXPECT_EQ(wire_size(untraced), wire_size(traced));
  EXPECT_EQ(zero[3], '2');  // "EMU2"
  for (std::size_t i = 4; i < 20; ++i) {
    EXPECT_EQ(zero[i], 0u) << "trace header byte " << i;
  }
  // Outside the trace header and the CRC the two encodings agree.
  EXPECT_TRUE(std::equal(zero.begin() + 20, zero.end() - 4,
                         with_trace.begin() + 20));
  EXPECT_FALSE(decode_upload(zero).trace.valid());
  const auto empty_set = encode_correlation_set(CorrelationSetMessage{});
  EXPECT_EQ(empty_set.size(), wire_size(CorrelationSetMessage{}));
  EXPECT_FALSE(decode_correlation_set(empty_set).trace.valid());
}

TEST(Transport, ZeroTraceIdDecodesAsUntraced) {
  // A zero trace id means "untraced" whatever the parent span says: decode
  // returns the all-zero context, never a half-valid one.
  // Zero the id and re-seal the CRC so the message is otherwise intact.
  SignalUploadMessage message;
  message.sequence = 5;
  message.trace = {0xdeadbeefull, 0x7};
  message.samples = testing::noise(14, 32);
  auto bytes = encode_upload(message);
  for (std::size_t i = 4; i < 12; ++i) {
    bytes[i] = 0;  // trace_id sits right after the magic
  }
  bytes.resize(bytes.size() - 4);
  const std::uint32_t crc = emap::crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff));
  }
  const auto decoded = decode_upload(bytes);
  EXPECT_EQ(decoded.trace, obs::TraceContext{});
  EXPECT_EQ(decoded.sequence, 5u);
}

TEST(Transport, EntryCountBeyondPayloadIsRejectedBeforeAllocation) {
  // An in-range CRC-valid message can still lie about its entry count if
  // an attacker recomputes the checksum; the decoder's count guard must
  // reject it from the byte budget alone.
  CorrelationSetMessage message;
  CorrelationEntry entry;
  entry.samples = testing::noise(9, 10);
  message.entries.push_back(entry);
  auto bytes = encode_correlation_set(message);
  // Rewrite the entry count (offset magic(4)+trace(16)+seq(4) = 24) to
  // 2^31 and re-seal a valid CRC so only the count guard can catch it.
  bytes[24] = 0x00;
  bytes[25] = 0x00;
  bytes[26] = 0x00;
  bytes[27] = 0x80;
  bytes.resize(bytes.size() - 4);
  const std::uint32_t crc = emap::crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>((crc >> (8 * i)) & 0xff));
  }
  EXPECT_THROW(decode_correlation_set(bytes), CorruptData);
}

}  // namespace
}  // namespace emap::net
