// Shared helpers for the EMAP test suite.
#pragma once

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numbers>
#include <string>
#include <vector>

#include "emap/common/rng.hpp"
#include "emap/mdb/builder.hpp"
#include "emap/obs/span.hpp"
#include "emap/synth/corpus.hpp"

namespace emap::testing {

/// RAII temporary directory under the system temp path.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("emap_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Sine wave helper: amp * sin(2 pi f t + phase) sampled at fs.
inline std::vector<double> sine(double freq_hz, double fs, std::size_t count,
                                double amp = 1.0, double phase = 0.0) {
  std::vector<double> samples(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    samples[i] = amp * std::sin(2.0 * std::numbers::pi * freq_hz *
                                    static_cast<double>(i) / fs +
                                phase);
  }
  return samples;
}

/// Gaussian noise vector.
inline std::vector<double> noise(std::uint64_t seed, std::size_t count,
                                 double stddev = 1.0) {
  Rng rng(seed);
  std::vector<double> samples(count, 0.0);
  for (double& s : samples) {
    s = rng.normal(0.0, stddev);
  }
  return samples;
}

/// `samples` rounded to f32, the sample type MDB signal-sets hold.
inline std::vector<float> to_f32(const std::vector<double>& samples) {
  return {samples.begin(), samples.end()};
}

/// Small MDB for search/tracker tests: `recordings_per_corpus` recordings
/// from each of the five standard corpora.
inline mdb::MdbStore small_mdb(std::size_t recordings_per_corpus = 4) {
  mdb::MdbBuilder builder;
  for (const auto& corpus : synth::standard_corpora(recordings_per_corpus)) {
    const auto recordings = synth::generate_corpus(corpus);
    for (std::size_t i = 0; i < recordings.size(); ++i) {
      builder.add_recording(recordings[i], corpus.name,
                            static_cast<std::uint32_t>(i));
    }
  }
  return builder.take_store();
}

/// Virtual-clock busy seconds of one span category: the sim_dur_sec sum
/// of its spans that start at or after time zero (0 with no tracer, i.e. a
/// run with trace collection off).
inline double busy_seconds(const obs::Tracer* tracer,
                           const std::string& category) {
  double total = 0.0;
  if (tracer != nullptr) {
    for (const auto& span : tracer->spans()) {
      if (span.category == category && span.sim_start_sec >= 0.0) {
        total += span.sim_dur_sec;
      }
    }
  }
  return total;
}

}  // namespace emap::testing
