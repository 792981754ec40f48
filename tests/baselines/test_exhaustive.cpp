#include "emap/baselines/exhaustive.hpp"

#include <gtest/gtest.h>

#include "support/test_util.hpp"

namespace emap::baselines {
namespace {

TEST(Exhaustive, EvaluatesEveryFullOverlapOffset) {
  mdb::MdbStore store;
  mdb::SignalSet set;
  set.samples = testing::to_f32(testing::noise(1, mdb::kSignalSetLength, 5.0));
  store.insert(std::move(set));
  ExhaustiveSearch search{core::EmapConfig{}};
  const auto probe = testing::noise(2, 256, 5.0);
  const auto result = search.search(probe, store);
  // Paper Section V-B / Algorithm 1 line 4: beta < len(S) - len(I) -> 744.
  EXPECT_EQ(result.stats.correlation_evals, 744u);
}

TEST(Exhaustive, FindsGlobalBestOffset) {
  mdb::MdbStore store;
  const auto probe = testing::sine(21.0, 256.0, 256, 5.0);
  mdb::SignalSet set;
  set.samples = testing::to_f32(testing::noise(3, mdb::kSignalSetLength, 5.0));
  for (std::size_t i = 0; i < 256; ++i) {
    set.samples[333 + i] = probe[i] * 0.9 + 0.2;
  }
  store.insert(std::move(set));
  ExhaustiveSearch search{core::EmapConfig{}};
  const auto result = search.search(probe, store);
  ASSERT_FALSE(result.matches.empty());
  EXPECT_EQ(result.matches.front().beta, 333u);
  EXPECT_GT(result.matches.front().omega, 0.95);
}

TEST(Exhaustive, MoreEvaluationsThanAlgorithm1) {
  const auto store = testing::small_mdb(1);
  const auto probe = testing::sine(17.0, 256.0, 256, 7.0);
  core::EmapConfig config;
  const auto exhaustive = ExhaustiveSearch(config).search(probe, store);
  const auto algorithm1 =
      core::CrossCorrelationSearch(config).search(probe, store);
  EXPECT_GT(exhaustive.stats.correlation_evals,
            5 * algorithm1.stats.correlation_evals);
}

TEST(Exhaustive, ParallelMatchesSerial) {
  const auto store = testing::small_mdb(1);
  const auto probe = testing::sine(17.0, 256.0, 256, 7.0);
  core::EmapConfig config;
  config.delta = 0.4;
  ThreadPool pool(4);
  const auto serial = ExhaustiveSearch(config, nullptr).search(probe, store);
  const auto parallel = ExhaustiveSearch(config, &pool).search(probe, store);
  ASSERT_EQ(serial.matches.size(), parallel.matches.size());
  for (std::size_t i = 0; i < serial.matches.size(); ++i) {
    EXPECT_EQ(serial.matches[i].set_id, parallel.matches[i].set_id);
    EXPECT_EQ(serial.matches[i].beta, parallel.matches[i].beta);
  }
}

TEST(Exhaustive, EmptyStoreGivesEmptyResult) {
  mdb::MdbStore store;
  ExhaustiveSearch search{core::EmapConfig{}};
  EXPECT_TRUE(search.search(testing::noise(4, 256), store).matches.empty());
}

}  // namespace
}  // namespace emap::baselines
