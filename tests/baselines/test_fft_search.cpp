#include "emap/baselines/fft_search.hpp"

#include <gtest/gtest.h>

#include "emap/baselines/exhaustive.hpp"
#include "support/test_util.hpp"

namespace emap::baselines {
namespace {

TEST(FftSearch, MatchesExhaustiveOnPlantedSignal) {
  mdb::MdbStore store;
  const auto probe = testing::sine(21.0, 256.0, 256, 5.0);
  mdb::SignalSet set;
  set.samples = testing::to_f32(testing::noise(1, mdb::kSignalSetLength, 5.0));
  for (std::size_t i = 0; i < 256; ++i) {
    set.samples[333 + i] = probe[i] * 0.9 + 0.2;
  }
  store.insert(std::move(set));
  FftSearch fft_search{core::EmapConfig{}};
  const auto result = fft_search.search(probe, store);
  ASSERT_FALSE(result.matches.empty());
  EXPECT_EQ(result.matches.front().beta, 333u);
  EXPECT_GT(result.matches.front().omega, 0.95);
}

class FftVsExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FftVsExhaustive, IdenticalCandidateSets) {
  const auto store = testing::small_mdb(1);
  synth::EvalInputSpec spec;
  spec.cls = (GetParam() % 2 == 0) ? synth::AnomalyClass::kSeizure
                                   : synth::AnomalyClass::kNormal;
  spec.seed = GetParam();
  spec.duration_sec = 130.0;
  spec.onset_sec = 120.0;
  const auto input = synth::make_eval_input(spec);
  dsp::FirFilter filter{core::EmapConfig{}.filter};
  const auto filtered = filter.apply(input.samples);
  const std::span<const double> probe(filtered.data() + 110 * 256, 256);

  core::EmapConfig config;
  config.delta = 0.6;
  config.top_k = 1000000;
  const auto fft = FftSearch(config).search(probe, store);
  const auto direct = ExhaustiveSearch(config).search(probe, store);

  ASSERT_EQ(fft.matches.size(), direct.matches.size());
  for (std::size_t i = 0; i < fft.matches.size(); ++i) {
    EXPECT_EQ(fft.matches[i].set_id, direct.matches[i].set_id);
    EXPECT_EQ(fft.matches[i].beta, direct.matches[i].beta);
    EXPECT_NEAR(fft.matches[i].omega, direct.matches[i].omega, 1e-9);
  }
}

TEST_P(FftVsExhaustive, FewerMultipliesThanDirect) {
  const auto store = testing::small_mdb(1);
  const auto probe = testing::noise(GetParam(), 256, 5.0);
  core::EmapConfig config;
  const auto fft = FftSearch(config).search(probe, store);
  const auto direct = ExhaustiveSearch(config).search(probe, store);
  EXPECT_LT(fft.stats.mac_ops, direct.stats.mac_ops);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FftVsExhaustive,
                         ::testing::Range<std::uint64_t>(1, 5));

TEST(FftSearch, DegenerateProbeMatchesNothing) {
  const auto store = testing::small_mdb(1);
  const std::vector<double> flat(256, 3.0);
  FftSearch search{core::EmapConfig{}};
  EXPECT_TRUE(search.search(flat, store).matches.empty());
}

TEST(FftSearch, ParallelMatchesSerial) {
  const auto store = testing::small_mdb(1);
  const auto probe = testing::sine(17.0, 256.0, 256, 7.0);
  core::EmapConfig config;
  config.delta = 0.5;
  ThreadPool pool(4);
  const auto serial = FftSearch(config, nullptr).search(probe, store);
  const auto parallel = FftSearch(config, &pool).search(probe, store);
  ASSERT_EQ(serial.matches.size(), parallel.matches.size());
  for (std::size_t i = 0; i < serial.matches.size(); ++i) {
    EXPECT_EQ(serial.matches[i].set_id, parallel.matches[i].set_id);
    EXPECT_EQ(serial.matches[i].beta, parallel.matches[i].beta);
  }
}

TEST(FftSearch, EmptyStoreGivesEmptyResult) {
  mdb::MdbStore store;
  FftSearch search{core::EmapConfig{}};
  EXPECT_TRUE(
      search.search(testing::noise(9, 256), store).matches.empty());
}

}  // namespace
}  // namespace emap::baselines
