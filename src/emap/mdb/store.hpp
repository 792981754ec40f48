// MdbStore: the mega-database of labeled signal-sets.
//
// Stands in for the paper's MongoDB instance: durable storage and
// positional access for the cloud search, which splits [0, size()) across
// its thread pool.  The store is append-only; signal-sets are immutable
// once inserted, and hold the f32 samples their file stores.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "emap/mdb/codec.hpp"
#include "emap/mdb/signal_set.hpp"

namespace emap::mdb {

/// In-memory mega-database with binary persistence.
class MdbStore {
 public:
  MdbStore() = default;
  explicit MdbStore(StoreInfo info) : info_(info) {}

  const StoreInfo& info() const { return info_; }

  /// Inserts a signal-set; assigns the next id when set.id == 0.
  /// Returns the stored id.  Throws InvalidArgument when the sample count
  /// does not match info().slice_length.
  std::uint64_t insert(SignalSet set);

  std::size_t size() const { return sets_.size(); }
  bool empty() const { return sets_.empty(); }

  /// Record access by position (0 <= index < size()).
  const SignalSet& at(std::size_t index) const;

  /// All records, in insertion order.
  std::span<const SignalSet> all() const { return sets_; }

  /// Number of anomalous records.
  std::size_t count_anomalous() const;

  /// Serializes the whole store (file format in codec.hpp).
  std::vector<std::uint8_t> encode() const;

  /// Parses a serialized store; throws CorruptData on malformed input.
  static MdbStore decode(const std::vector<std::uint8_t>& bytes);

  /// Saves to / loads from disk.
  void save(const std::filesystem::path& path) const;
  static MdbStore load(const std::filesystem::path& path);

 private:
  StoreInfo info_;
  std::vector<SignalSet> sets_;
  std::uint64_t next_id_ = 1;
};

}  // namespace emap::mdb
