// SignalSet: the unit of storage and search in the mega-database.
//
// Each source signal is "sliced into signal-sets of 1000 samples each, and
// allocated a label (normal or anomalous)" (paper Section V-B).  A
// SignalSet also carries provenance (corpus, recording, slice offset) and
// the anomaly class tag used by the evaluation harnesses; the search and
// tracking algorithms only ever read `samples` and `anomalous`.
//
// Samples are single precision, the same f32 values the store file holds
// (codec.hpp): the sources are 16-bit recordings (paper Section V-A), so
// f32 loses nothing they carry, and the Algorithm 1 scan streams half the
// bytes.  Readers that compute in f64 widen, which is exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace emap::mdb {

/// Samples per signal-set (paper: 1000 at the 256 Hz base rate).
inline constexpr std::size_t kSignalSetLength = 1000;

/// One labeled slice of a pre-processed source signal.
struct SignalSet {
  std::uint64_t id = 0;            ///< unique within a store
  bool anomalous = false;          ///< A(S_P) of the paper (0/1)
  std::uint8_t class_tag = 0;      ///< synth::AnomalyClass value (evaluation
                                   ///< metadata; not used by the algorithms)
  std::string source;              ///< corpus name
  std::uint32_t source_recording = 0;  ///< recording index within the corpus
  double start_sec = 0.0;          ///< slice offset inside the recording
  std::vector<float> samples;      ///< filtered, 256 Hz base-rate samples
};

}  // namespace emap::mdb
