// Full-path integration: synthetic corpora -> EDF files -> MDB build ->
// search -> tracking -> prediction.
#include <gtest/gtest.h>

#include <cstring>

#include "emap/core/pipeline.hpp"
#include "emap/edf/edf.hpp"
#include "emap/mdb/builder.hpp"
#include "emap/synth/artifacts.hpp"
#include "support/test_util.hpp"

namespace emap {
namespace {

TEST(EndToEnd, EdfIngestPathBuildsEquivalentMdb) {
  // Write one corpus through EDF and ingest it back; labels applied via the
  // recording's annotations must survive the round trip.
  testing::TempDir dir("e2e");
  auto corpora = synth::standard_corpora(2);
  const auto recordings = synth::generate_corpus(corpora[0]);

  mdb::MdbBuilder direct;
  mdb::MdbBuilder via_edf;
  for (std::size_t i = 0; i < recordings.size(); ++i) {
    const auto& recording = recordings[i];
    direct.add_recording(recording, "direct", static_cast<std::uint32_t>(i));

    const auto path = dir.path() / ("rec" + std::to_string(i) + ".edf");
    edf::EdfFile file;
    file.sample_rate_hz = recording.fs();
    edf::EdfChannel channel;
    channel.physical_min = -400.0;
    channel.physical_max = 400.0;
    channel.samples = recording.samples;
    file.channels.push_back(std::move(channel));
    edf::write_edf(path, file);
    via_edf.add_edf(
        path, "edf", static_cast<std::uint32_t>(i),
        [&recording](double t) { return recording.anomalous_at(t); },
        static_cast<std::uint8_t>(recording.spec.cls));
  }

  const auto& a = direct.store();
  const auto& b = via_edf.store();
  // EDF rounds the duration to whole records, so slice counts may differ by
  // one per recording; labels and the bulk of the content must agree.
  EXPECT_NEAR(static_cast<double>(a.size()), static_cast<double>(b.size()),
              static_cast<double>(recordings.size()));
  EXPECT_NEAR(static_cast<double>(a.count_anomalous()),
              static_cast<double>(b.count_anomalous()),
              static_cast<double>(recordings.size()));
  // Sample values survive the 16-bit EDF quantization.
  for (std::size_t k = 0; k < 100; ++k) {
    EXPECT_NEAR(a.at(0).samples[k], b.at(0).samples[k], 0.2);
  }
}

TEST(EndToEnd, MdbPersistenceRoundTripPreservesSearchResults) {
  testing::TempDir dir("persist");
  auto store = testing::small_mdb(3);
  const auto path = dir.path() / "mdb.bin";
  store.save(path);
  const auto loaded = mdb::MdbStore::load(path);

  core::EmapConfig config;
  core::CrossCorrelationSearch search(config);
  synth::EvalInputSpec spec;
  spec.duration_sec = 130.0;
  spec.onset_sec = 120.0;
  const auto input = synth::make_eval_input(spec);
  dsp::FirFilter filter(config.filter);
  const auto filtered = filter.apply(input.samples);
  const std::span<const double> window(filtered.data() + 115 * 256, 256);

  // The built store already holds the f32 samples its file stores, so the
  // loaded store searches to the same bits.
  const auto a = search.search(window, store);
  const auto b = search.search(window, loaded);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].store_index, b.matches[i].store_index);
    EXPECT_EQ(a.matches[i].set_id, b.matches[i].set_id);
    EXPECT_EQ(a.matches[i].beta, b.matches[i].beta);
    EXPECT_EQ(std::memcmp(&a.matches[i].omega, &b.matches[i].omega,
                          sizeof(double)),
              0);
    EXPECT_EQ(a.matches[i].anomalous, b.matches[i].anomalous);
    EXPECT_EQ(a.matches[i].class_tag, b.matches[i].class_tag);
  }
  EXPECT_EQ(a.stats.correlation_evals, b.stats.correlation_evals);
  EXPECT_EQ(a.stats.mac_ops, b.stats.mac_ops);
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.sets_scanned, b.stats.sets_scanned);
  EXPECT_EQ(a.stats.offsets_total, b.stats.offsets_total);
}

TEST(EndToEnd, SeizureInputAlarmsBeforeOnset) {
  core::PipelineOptions options;
  options.stop_on_alarm = true;
  core::EmapPipeline pipeline(testing::small_mdb(8), core::EmapConfig{},
                              options);
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 12;
  const auto input = synth::make_eval_input(spec);
  const auto result = pipeline.run(input, spec.onset_sec);
  EXPECT_TRUE(result.anomaly_predicted);
  EXPECT_GT(result.first_alarm_sec, 0.0);
  EXPECT_LE(result.first_alarm_sec, spec.onset_sec);
}

TEST(EndToEnd, AnomalyProbabilityRisesThroughProdrome) {
  // The Fig. 2 mechanism: P_A must be higher near onset than during clean
  // background for an anomalous input.
  core::EmapPipeline pipeline(testing::small_mdb(8), core::EmapConfig{});
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 21;
  const auto input = synth::make_eval_input(spec);
  const auto result = pipeline.run(input, spec.onset_sec);

  double early_max = 0.0;
  double late_max = 0.0;
  for (const auto& record : result.iterations) {
    if (!record.tracked || record.tracked_after < 6) {
      continue;
    }
    if (record.t_sec < 50.0) {
      early_max = std::max(early_max, record.anomaly_probability);
    } else if (record.t_sec > spec.onset_sec - 60.0) {
      late_max = std::max(late_max, record.anomaly_probability);
    }
  }
  EXPECT_GT(late_max, early_max);
}

TEST(EndToEnd, PredictionSurvivesArtifactContamination) {
  // Section III's rationale for the 11-40 Hz bandpass: blinks, EMG bursts
  // and electrode pops must not break the prediction path.  The MDB is
  // built from clean recordings; only the monitored input is contaminated.
  core::PipelineOptions options;
  options.stop_on_alarm = true;
  core::EmapPipeline pipeline(testing::small_mdb(8), core::EmapConfig{},
                              options);
  synth::EvalInputSpec spec;
  spec.cls = synth::AnomalyClass::kSeizure;
  spec.seed = 12;  // a seed known to alarm on the clean path (test above)
  const auto clean = synth::make_eval_input(spec);
  synth::ArtifactInjector injector;
  const auto dirty = injector.apply(clean);
  const auto result = pipeline.run(dirty, spec.onset_sec);
  EXPECT_TRUE(result.anomaly_predicted);
  EXPECT_LE(result.first_alarm_sec, spec.onset_sec);
}

TEST(EndToEnd, NormalInputsMostlyQuiet) {
  core::PipelineOptions options;
  options.stop_on_alarm = true;
  core::EmapPipeline pipeline(testing::small_mdb(8), core::EmapConfig{},
                              options);
  int alarms = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    synth::EvalInputSpec spec;
    spec.cls = synth::AnomalyClass::kNormal;
    spec.seed = 3000 + seed;
    spec.duration_sec = 120.0;
    const auto result = pipeline.run(synth::make_eval_input(spec));
    if (result.anomaly_predicted) {
      ++alarms;
    }
  }
  EXPECT_LE(alarms, 2);  // FPR well below half
}

}  // namespace
}  // namespace emap
