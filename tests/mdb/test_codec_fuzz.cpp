// Mutation fuzzing of the MDB codec: random byte flips must be detected
// (CRC/framing) or produce a structurally valid record — never crash.
#include <gtest/gtest.h>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"
#include "emap/mdb/store.hpp"
#include "support/test_util.hpp"

namespace emap::mdb {
namespace {

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RecordMutationsDetectedOrHarmless) {
  SignalSet set;
  set.id = GetParam();
  set.anomalous = true;
  set.source = "fuzz";
  set.samples = testing::to_f32(testing::noise(GetParam(), kSignalSetLength));
  const auto bytes = encode_record(set);

  Rng rng(GetParam() * 7919);
  int detected = 0;
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    auto mutated = bytes;
    const auto at = rng.uniform_index(mutated.size());
    const auto bit = rng.uniform_index(8);
    mutated[at] ^= static_cast<std::uint8_t>(1u << bit);
    Decoder decoder(mutated);
    try {
      (void)decoder.read_record();
    } catch (const CorruptData&) {
      ++detected;
    }
  }
  // Single-bit flips inside the payload or CRC are always caught; flips in
  // the (unprotected) length prefix are caught by framing.  Everything must
  // be detected for single-bit mutations.
  EXPECT_EQ(detected, trials);
}

TEST_P(CodecFuzz, StoreMutationsDetectedOrHarmless) {
  MdbStore store;
  for (int i = 0; i < 3; ++i) {
    SignalSet set;
    set.samples = testing::to_f32(testing::noise(
        GetParam() + static_cast<std::uint64_t>(i), kSignalSetLength));
    store.insert(std::move(set));
  }
  const auto bytes = store.encode();
  Rng rng(GetParam() * 104729);
  for (int trial = 0; trial < 40; ++trial) {
    auto mutated = bytes;
    const auto at = rng.uniform_index(mutated.size());
    mutated[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    try {
      const auto decoded = MdbStore::decode(mutated);
      // If it decoded, the store-level invariants must still hold.
      for (const auto& record : decoded.all()) {
        EXPECT_EQ(record.samples.size(), decoded.info().slice_length);
      }
    } catch (const CorruptData&) {
      // expected
    }
  }
}

TEST_P(CodecFuzz, RandomGarbageNeverDecodes) {
  Rng rng(GetParam());
  std::vector<std::uint8_t> garbage(rng.uniform_index(4096) + 16);
  for (auto& byte : garbage) {
    byte = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  EXPECT_THROW(MdbStore::decode(garbage), CorruptData);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace emap::mdb
