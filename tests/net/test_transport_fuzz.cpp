// Randomized robustness tests for the wire codec: every mutation of a valid
// encoding — truncation, bit-flips, random garbage — must surface as
// CorruptData, never as UB, a silent mis-decode, or an attempted huge
// allocation.  The CRC-32 trailer makes the bit-flip guarantee exact; the
// count-vs-remaining-bytes guards make truncated/garbage inputs cheap to
// reject.  Seeds are fixed: each failure is reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"
#include "emap/net/transport.hpp"
#include "support/test_util.hpp"

namespace emap::net {
namespace {

SignalUploadMessage sample_upload(std::uint64_t seed) {
  SignalUploadMessage message;
  message.sequence = static_cast<std::uint32_t>(seed * 31 + 5);
  message.samples = testing::noise(seed, 256, 7.0);
  return message;
}

SignalUploadMessage sample_traced_upload(std::uint64_t seed) {
  auto message = sample_upload(seed);
  message.trace = {obs::mint_trace_id(obs::kDefaultTraceSeed, seed),
                   seed * 7 + 1};
  return message;
}

CorrelationSetMessage sample_correlation_set(std::uint64_t seed,
                                             std::size_t entries) {
  CorrelationSetMessage message;
  message.request_sequence = static_cast<std::uint32_t>(seed);
  for (std::size_t i = 0; i < entries; ++i) {
    CorrelationEntry entry;
    entry.set_id = seed * 1000 + i;
    entry.omega = 0.8f + 0.001f * static_cast<float>(i);
    entry.beta = static_cast<std::uint32_t>(i * 17);
    entry.anomalous = i % 2 == 0 ? 1 : 0;
    entry.class_tag = static_cast<std::uint8_t>(i % 5);
    entry.samples = testing::noise(seed + i, 200, 5.0);
    message.entries.push_back(std::move(entry));
  }
  return message;
}

template <typename Decode>
void expect_corrupt(const std::vector<std::uint8_t>& bytes, Decode decode,
                    const char* what) {
  try {
    decode(bytes);
    FAIL() << what << ": decode accepted a mutated message";
  } catch (const CorruptData&) {
    // expected
  }
  // Any other exception type escapes and fails the test.
}

TEST(TransportFuzz, UploadSurvivesBitFlips) {
  Rng rng(101);
  const auto bytes = encode_upload(sample_upload(1));
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = bytes;
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t at = rng.uniform_index(mutated.size());
      mutated[at] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_index(8));
    }
    if (mutated == bytes) {
      continue;  // flips cancelled out
    }
    expect_corrupt(mutated,
                   [](const auto& b) { return decode_upload(b); },
                   "upload bit-flip");
  }
}

TEST(TransportFuzz, CorrelationSetSurvivesBitFlips) {
  Rng rng(202);
  const auto bytes = encode_correlation_set(sample_correlation_set(2, 4));
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = bytes;
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t at = rng.uniform_index(mutated.size());
      mutated[at] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_index(8));
    }
    if (mutated == bytes) {
      continue;
    }
    expect_corrupt(mutated,
                   [](const auto& b) { return decode_correlation_set(b); },
                   "correlation-set bit-flip");
  }
}

TEST(TransportFuzz, UploadSurvivesEveryTruncation) {
  const auto bytes = encode_upload(sample_upload(3));
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + length);
    expect_corrupt(truncated,
                   [](const auto& b) { return decode_upload(b); },
                   "upload truncation");
  }
}

TEST(TransportFuzz, CorrelationSetSurvivesSampledTruncations) {
  const auto bytes = encode_correlation_set(sample_correlation_set(4, 3));
  // Every prefix would be slow (~1.3 kB x 1.3 k decodes); step through and
  // always include the boundary-adjacent lengths.
  for (std::size_t length = 0; length < bytes.size();
       length += (length < 64 ? 1 : 7)) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + length);
    expect_corrupt(truncated,
                   [](const auto& b) { return decode_correlation_set(b); },
                   "correlation-set truncation");
  }
}

TEST(TransportFuzz, RandomGarbageNeverDecodes) {
  Rng rng(303);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform_index(512));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    expect_corrupt(garbage, [](const auto& b) { return decode_upload(b); },
                   "garbage upload");
    expect_corrupt(garbage,
                   [](const auto& b) { return decode_correlation_set(b); },
                   "garbage correlation set");
  }
}

TEST(TransportFuzz, HugeDeclaredCountsRejectedWithoutAllocation) {
  // Corrupt the length fields to claim astronomically many samples/entries.
  // The decoder must reject via the count-vs-remaining-bytes guard (or the
  // CRC) instead of attempting the allocation.
  auto upload = encode_upload(sample_upload(5));
  // sample count lives after magic(4)+trace(16)+sequence(4)+scale(4) =
  // offset 28.
  upload[28] = 0xff;
  upload[29] = 0xff;
  upload[30] = 0xff;
  upload[31] = 0xff;
  expect_corrupt(upload, [](const auto& b) { return decode_upload(b); },
                 "upload huge count");

  auto corrset = encode_correlation_set(sample_correlation_set(6, 2));
  // entry count lives after magic(4)+trace(16)+request_sequence(4) =
  // offset 24.
  corrset[24] = 0xff;
  corrset[25] = 0xff;
  corrset[26] = 0xff;
  corrset[27] = 0xff;
  expect_corrupt(corrset,
                 [](const auto& b) { return decode_correlation_set(b); },
                 "correlation-set huge count");
}

TEST(TransportFuzz, TracedUploadSurvivesBitFlips) {
  // The 16 trace-header bytes sit inside the CRC seal; any flip —
  // including in the trace id itself — must fail decode, which may never
  // surface a garbage context.
  Rng rng(505);
  const auto bytes = encode_upload(sample_traced_upload(7));
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = bytes;
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t i = 0; i < flips; ++i) {
      const std::size_t at = rng.uniform_index(mutated.size());
      mutated[at] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_index(8));
    }
    if (mutated == bytes) {
      continue;
    }
    expect_corrupt(mutated,
                   [](const auto& b) { return decode_upload(b); },
                   "traced upload bit-flip");
  }
}

TEST(TransportFuzz, TracedCorrelationSetSurvivesBitFlips) {
  Rng rng(606);
  auto message = sample_correlation_set(8, 4);
  message.trace = {obs::mint_trace_id(obs::kDefaultTraceSeed, 8), 3};
  const auto bytes = encode_correlation_set(message);
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = bytes;
    mutated[rng.uniform_index(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    if (mutated == bytes) {
      continue;
    }
    expect_corrupt(mutated,
                   [](const auto& b) { return decode_correlation_set(b); },
                   "traced correlation-set bit-flip");
  }
}

TEST(TransportFuzz, TracedUploadSurvivesEveryTruncation) {
  const auto bytes = encode_upload(sample_traced_upload(9));
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + length);
    expect_corrupt(truncated,
                   [](const auto& b) { return decode_upload(b); },
                   "traced upload truncation");
  }
}

TEST(TransportFuzz, TracedHugeDeclaredCountRejectedWithoutAllocation) {
  // Same guard as the untraced case, with a nonzero trace header in front
  // of the count at magic(4)+trace(16)+sequence(4)+scale(4) = 28.
  auto upload = encode_upload(sample_traced_upload(10));
  upload[28] = 0xff;
  upload[29] = 0xff;
  upload[30] = 0xff;
  upload[31] = 0xff;
  expect_corrupt(upload, [](const auto& b) { return decode_upload(b); },
                 "traced upload huge count");
}

TEST(TransportFuzz, MutateDecodeLoopIsStable) {
  // Interleave encode -> corrupt -> reject -> re-encode for many rounds;
  // the codec must stay usable after arbitrary rejected inputs (no global
  // state, no leaks visible under ASan).
  Rng rng(404);
  for (int round = 0; round < 50; ++round) {
    const auto message = sample_correlation_set(
        static_cast<std::uint64_t>(round), 1 + round % 3);
    auto bytes = encode_correlation_set(message);
    const auto good = decode_correlation_set(bytes);
    EXPECT_EQ(good.entries.size(), message.entries.size());
    bytes[rng.uniform_index(bytes.size())] ^= 0x40;
    expect_corrupt(bytes,
                   [](const auto& b) { return decode_correlation_set(b); },
                   "mutate-decode loop");
  }
}

}  // namespace
}  // namespace emap::net
