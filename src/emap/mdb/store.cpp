#include "emap/mdb/store.hpp"

#include <algorithm>
#include <fstream>

#include "emap/common/error.hpp"
#include "emap/common/file_io.hpp"

namespace emap::mdb {
namespace {

constexpr std::uint32_t kMagic = 0x42444d45u;  // "EMDB" little-endian
constexpr std::uint32_t kVersion = 1;
// u32 size + id, label, class, empty source, recording, start, n + u32 crc.
constexpr std::uint64_t kMinRecordBytes = 4 + 8 + 1 + 1 + 2 + 4 + 8 + 4 + 4;

}  // namespace

std::uint64_t MdbStore::insert(SignalSet set) {
  require(set.samples.size() == info_.slice_length,
          "MdbStore::insert: signal-set length must match store slice length");
  if (set.id == 0) {
    set.id = next_id_++;
  } else {
    next_id_ = std::max(next_id_, set.id + 1);
  }
  const std::uint64_t id = set.id;
  sets_.push_back(std::move(set));
  return id;
}

const SignalSet& MdbStore::at(std::size_t index) const {
  require(index < sets_.size(), "MdbStore::at: index out of range");
  return sets_[index];
}

std::size_t MdbStore::count_anomalous() const {
  return static_cast<std::size_t>(
      std::count_if(sets_.begin(), sets_.end(),
                    [](const SignalSet& s) { return s.anomalous; }));
}

std::vector<std::uint8_t> MdbStore::encode() const {
  Encoder header;
  header.write_u32(kMagic);
  header.write_u32(kVersion);
  header.write_f64(info_.base_fs_hz);
  header.write_u32(info_.slice_length);
  header.write_u64(sets_.size());
  std::vector<std::uint8_t> out = header.take();
  for (const auto& set : sets_) {
    const auto record = encode_record(set);
    out.insert(out.end(), record.begin(), record.end());
  }
  return out;
}

MdbStore MdbStore::decode(const std::vector<std::uint8_t>& bytes) {
  Decoder decoder(bytes);
  if (decoder.read_u32() != kMagic) {
    throw CorruptData("MdbStore::decode: bad magic");
  }
  const std::uint32_t version = decoder.read_u32();
  if (version != kVersion) {
    throw CorruptData("MdbStore::decode: unsupported version " +
                      std::to_string(version));
  }
  StoreInfo info;
  info.base_fs_hz = decoder.read_f64();
  info.slice_length = decoder.read_u32();
  if (info.base_fs_hz <= 0.0 || info.slice_length == 0) {
    throw CorruptData("MdbStore::decode: invalid store info");
  }
  const std::uint64_t count = decoder.read_u64();
  // A forged count must not drive the reserve: every record holds at least
  // its framing, fixed fields and slice_length f32 samples.
  const std::uint64_t min_record =
      kMinRecordBytes + std::uint64_t{4} * info.slice_length;
  if (count > (bytes.size() - decoder.cursor()) / min_record) {
    throw CorruptData("MdbStore::decode: record count exceeds file size");
  }
  MdbStore store(info);
  store.sets_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    SignalSet set = decoder.read_record();
    if (set.samples.size() != info.slice_length) {
      throw CorruptData("MdbStore::decode: record length mismatch");
    }
    store.next_id_ = std::max(store.next_id_, set.id + 1);
    store.sets_.push_back(std::move(set));
  }
  if (!decoder.at_end()) {
    throw CorruptData("MdbStore::decode: trailing bytes after records");
  }
  return store;
}

void MdbStore::save(const std::filesystem::path& path) const {
  const auto bytes = encode();
  std::ofstream stream(path, std::ios::binary | std::ios::trunc);
  if (!stream) {
    throw IoError("MdbStore::save: cannot open " + path.string());
  }
  stream.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  if (!stream) {
    throw IoError("MdbStore::save: write failed for " + path.string());
  }
}

MdbStore MdbStore::load(const std::filesystem::path& path) {
  return decode(read_file(path));
}

}  // namespace emap::mdb
