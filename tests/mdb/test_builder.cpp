#include "emap/mdb/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "emap/dsp/fft.hpp"
#include "emap/edf/edf.hpp"
#include "support/test_util.hpp"

namespace emap::mdb {
namespace {

synth::Recording make_recording(synth::AnomalyClass cls, double fs,
                                double duration = 60.0) {
  synth::RecordingGenerator gen;
  synth::RecordingSpec spec;
  spec.cls = cls;
  spec.fs = fs;
  spec.duration_sec = duration;
  spec.onset_sec = duration * 0.8;
  spec.seed = 21;
  return gen.generate(spec);
}

TEST(Builder, SliceCountMatchesArithmetic) {
  MdbBuilder builder;
  const auto recording = make_recording(synth::AnomalyClass::kNormal, 256.0);
  const auto inserted = builder.add_recording(recording, "test", 0);
  // 60 s at 256 Hz = 15360 samples; minus 100 transient; /1000 slices.
  EXPECT_EQ(inserted, (15360u - 100u) / 1000u);
  EXPECT_EQ(builder.store().size(), inserted);
}

TEST(Builder, ResamplesNativeRates) {
  MdbBuilder builder;
  const auto recording = make_recording(synth::AnomalyClass::kNormal, 512.0);
  const auto inserted = builder.add_recording(recording, "bnci", 0);
  // Same 60 s of content regardless of native rate.
  EXPECT_EQ(inserted, (15360u - 100u) / 1000u);
  for (const auto& set : builder.store().all()) {
    EXPECT_EQ(set.samples.size(), kSignalSetLength);
  }
}

TEST(Builder, SlicesAreBandlimited) {
  MdbBuilder builder;
  builder.add_recording(make_recording(synth::AnomalyClass::kNormal, 100.0),
                        "warsaw", 0);
  for (const auto& set : builder.store().all()) {
    const std::vector<double> samples(set.samples.begin(), set.samples.end());
    const double in_band = dsp::band_power(samples, 256.0, 11.0, 40.0);
    const double below = dsp::band_power(samples, 256.0, 0.1, 6.0);
    const double above = dsp::band_power(samples, 256.0, 60.0, 127.0);
    EXPECT_GT(in_band, 10.0 * (below + above));
  }
}

TEST(Builder, LabelsFollowAnnotations) {
  MdbBuilder builder;
  const auto recording =
      make_recording(synth::AnomalyClass::kSeizure, 256.0, 300.0);
  builder.add_recording(recording, "physionet", 3);
  std::size_t anomalous = 0;
  for (const auto& set : builder.store().all()) {
    EXPECT_EQ(set.source, "physionet");
    EXPECT_EQ(set.source_recording, 3u);
    const double mid = set.start_sec + 500.0 / 256.0;
    EXPECT_EQ(set.anomalous, recording.anomalous_at(mid))
        << "slice at " << set.start_sec;
    if (set.anomalous) {
      ++anomalous;
    }
  }
  EXPECT_GT(anomalous, 0u);
  EXPECT_LT(anomalous, builder.store().size());
}

TEST(Builder, ClassTagPropagates) {
  MdbBuilder builder;
  builder.add_recording(make_recording(synth::AnomalyClass::kStroke, 256.0),
                        "bnci", 0);
  for (const auto& set : builder.store().all()) {
    EXPECT_EQ(set.class_tag,
              static_cast<std::uint8_t>(synth::AnomalyClass::kStroke));
  }
}

TEST(Builder, StartSecReflectsSlicePosition) {
  MdbBuilder builder;
  builder.add_recording(make_recording(synth::AnomalyClass::kNormal, 256.0),
                        "test", 0);
  const auto& store = builder.store();
  for (std::size_t i = 1; i < store.size(); ++i) {
    EXPECT_NEAR(store.at(i).start_sec - store.at(i - 1).start_sec,
                1000.0 / 256.0, 1e-9);
  }
}

TEST(Builder, EmptySignalInsertsNothing) {
  MdbBuilder builder;
  EXPECT_EQ(builder.add_signal({}, 256.0, "t", 0, nullptr, 0), 0u);
}

TEST(Builder, TooShortSignalInsertsNothing) {
  MdbBuilder builder;
  const auto samples = testing::noise(1, 500);
  EXPECT_EQ(builder.add_signal(samples, 256.0, "t", 0, nullptr, 0), 0u);
}

TEST(Builder, NullLabelCallbackMeansNormal) {
  MdbBuilder builder;
  const auto samples = testing::noise(2, 5000);
  builder.add_signal(samples, 256.0, "t", 0, nullptr, 0);
  EXPECT_EQ(builder.store().count_anomalous(), 0u);
}

TEST(Builder, IngestsEdfFiles) {
  testing::TempDir dir("builder");
  const auto path = dir.path() / "rec.edf";
  edf::EdfFile file;
  file.sample_rate_hz = 256.0;
  edf::EdfChannel channel;
  channel.physical_min = -300.0;
  channel.physical_max = 300.0;
  channel.samples = make_recording(synth::AnomalyClass::kNormal, 256.0)
                        .samples;
  file.channels.push_back(channel);
  edf::write_edf(path, file);

  MdbBuilder builder;
  const auto inserted = builder.add_edf(
      path, "edf-corpus", 0, [](double) { return false; }, 0);
  EXPECT_GT(inserted, 10u);
  const auto sets = builder.store().all();
  const auto from_edf = std::count_if(
      sets.begin(), sets.end(),
      [](const SignalSet& set) { return set.source == "edf-corpus"; });
  EXPECT_EQ(static_cast<std::size_t>(from_edf), inserted);
}

}  // namespace
}  // namespace emap::mdb
