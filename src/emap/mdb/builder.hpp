// Mega-database construction pipeline (paper Fig. 3, left block).
//
// For every source signal: up-/down-sample to the 256 Hz base rate, pass
// through the 100-tap 11-40 Hz bandpass (the same filter the edge applies
// to the live input, "to ensure consistency, uniformity, and ease of
// search"), slice into 1000-sample signal-sets rounded to f32, label each
// slice, insert.
#pragma once

#include <filesystem>
#include <functional>
#include <string>

#include "emap/mdb/store.hpp"
#include "emap/synth/generator.hpp"

namespace emap::mdb {

/// Base rate every source signal is resampled to before filtering.
inline constexpr double kBaseFsHz = 256.0;
/// A slice is labeled anomalous when at least this fraction of its span is
/// annotated anomalous.
inline constexpr double kAnomalousFraction = 0.5;

/// Ground-truth callback: label of the source signal at time t (seconds).
using LabelAt = std::function<bool(double)>;

/// Builds an MdbStore by running source signals through the pipeline:
/// resample to kBaseFsHz, the paper's bandpass, drop the filter's warm-up
/// transient, then back-to-back kSignalSetLength slices.
class MdbBuilder {
 public:
  MdbBuilder();

  /// Ingests raw samples at `native_fs_hz`.  `label_at` is queried at the
  /// base-rate time axis of each slice; `class_tag` is evaluation metadata.
  /// Returns the number of signal-sets inserted.
  std::size_t add_signal(std::span<const double> samples, double native_fs_hz,
                         const std::string& source,
                         std::uint32_t source_recording,
                         const LabelAt& label_at, std::uint8_t class_tag);

  /// Convenience: ingests a synthetic recording with its own annotations.
  std::size_t add_recording(const synth::Recording& recording,
                            const std::string& source,
                            std::uint32_t source_recording);

  /// Convenience: ingests channel 0 of an EDF file with an external label
  /// function (EDF carries no annotations in our subset).
  std::size_t add_edf(const std::filesystem::path& path,
                      const std::string& source,
                      std::uint32_t source_recording, const LabelAt& label_at,
                      std::uint8_t class_tag);

  const MdbStore& store() const { return store_; }
  MdbStore take_store() { return std::move(store_); }

 private:
  MdbStore store_;
};

}  // namespace emap::mdb
