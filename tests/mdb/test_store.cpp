#include "emap/mdb/store.hpp"

#include <gtest/gtest.h>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::mdb {
namespace {

SignalSet make_set(bool anomalous, const std::string& source = "corpus-a") {
  static std::uint64_t salt = 0;
  SignalSet set;
  set.anomalous = anomalous;
  set.source = source;
  set.samples = testing::to_f32(testing::noise(++salt, kSignalSetLength));
  return set;
}

TEST(Store, InsertAssignsSequentialIds) {
  MdbStore store;
  EXPECT_EQ(store.insert(make_set(false)), 1u);
  EXPECT_EQ(store.insert(make_set(true)), 2u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(Store, InsertRespectsExplicitIds) {
  MdbStore store;
  auto set = make_set(false);
  set.id = 50;
  EXPECT_EQ(store.insert(std::move(set)), 50u);
  EXPECT_EQ(store.insert(make_set(false)), 51u);
}

TEST(Store, InsertRejectsWrongLength) {
  MdbStore store;
  SignalSet set;
  set.samples.resize(10);
  EXPECT_THROW(store.insert(std::move(set)), InvalidArgument);
}

TEST(Store, AtRejectsOutOfRange) {
  MdbStore store;
  store.insert(make_set(false));
  EXPECT_NO_THROW(store.at(0));
  EXPECT_THROW(store.at(1), InvalidArgument);
}

TEST(Store, LabelQueries) {
  MdbStore store;
  store.insert(make_set(false));
  store.insert(make_set(true));
  store.insert(make_set(true));
  EXPECT_EQ(store.count_anomalous(), 2u);
}

TEST(Store, EncodeDecodeRoundTrip) {
  MdbStore store(StoreInfo{256.0, kSignalSetLength});
  store.insert(make_set(true, "physionet"));
  store.insert(make_set(false, "tuh"));
  const auto decoded = MdbStore::decode(store.encode());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded.at(0).source, "physionet");
  EXPECT_TRUE(decoded.at(0).anomalous);
  EXPECT_EQ(decoded.at(1).source, "tuh");
  EXPECT_DOUBLE_EQ(decoded.info().base_fs_hz, 256.0);
}

TEST(Store, DecodedStoreContinuesIdSequence) {
  MdbStore store;
  store.insert(make_set(false));
  store.insert(make_set(false));
  auto decoded = MdbStore::decode(store.encode());
  EXPECT_EQ(decoded.insert(make_set(false)), 3u);
}

TEST(Store, SaveLoadDiskRoundTrip) {
  testing::TempDir dir("store");
  const auto path = dir.path() / "mdb.bin";
  MdbStore store;
  store.insert(make_set(true));
  store.save(path);
  const auto loaded = MdbStore::load(path);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.at(0).anomalous);
}

TEST(Store, LoadMissingFileThrows) {
  EXPECT_THROW(MdbStore::load("/nonexistent/mdb.bin"), IoError);
}

TEST(Store, DecodeRejectsBadMagic) {
  MdbStore store;
  store.insert(make_set(false));
  auto bytes = store.encode();
  bytes[0] ^= 0xff;
  EXPECT_THROW(MdbStore::decode(bytes), CorruptData);
}

TEST(Store, DecodeRejectsCorruptRecord) {
  MdbStore store;
  store.insert(make_set(false));
  auto bytes = store.encode();
  bytes[bytes.size() / 2] ^= 0xff;
  EXPECT_THROW(MdbStore::decode(bytes), CorruptData);
}

TEST(Store, DecodeRejectsTrailingGarbage) {
  MdbStore store;
  store.insert(make_set(false));
  auto bytes = store.encode();
  bytes.push_back(0x00);
  EXPECT_THROW(MdbStore::decode(bytes), CorruptData);
}

TEST(Store, DecodeRejectsForgedRecordCount) {
  // An empty store's file is its 28-byte header; the record count is its
  // last 8 bytes.  A count no file of this size could hold must fail as
  // corrupt data before anything is reserved for it.
  const auto header = MdbStore(StoreInfo{256.0, kSignalSetLength}).encode();
  ASSERT_EQ(header.size(), 28u);
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 26, std::uint64_t{1},
        ~std::uint64_t{0}}) {
    auto bytes = header;
    for (int i = 0; i < 8; ++i) {
      bytes[20 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    }
    EXPECT_THROW(MdbStore::decode(bytes), CorruptData) << "count " << count;
  }
}

TEST(Store, DecodeRejectsTruncation) {
  MdbStore store;
  store.insert(make_set(false));
  auto bytes = store.encode();
  bytes.resize(bytes.size() - 10);
  EXPECT_THROW(MdbStore::decode(bytes), CorruptData);
}

}  // namespace
}  // namespace emap::mdb
