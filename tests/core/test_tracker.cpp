#include "emap/core/tracker.hpp"

#include <gtest/gtest.h>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

EmapConfig small_config() {
  EmapConfig config;
  config.tracking_threshold_h = 2;
  return config;
}

TrackedSignal make_signal(std::uint64_t id, bool anomalous,
                          std::vector<double> samples,
                          std::size_t beta = 0) {
  TrackedSignal signal;
  signal.set_id = id;
  signal.anomalous = anomalous;
  signal.beta = beta;
  signal.samples = std::move(samples);
  return signal;
}

TEST(Tracker, UnloadedStepIsNoop) {
  EdgeTracker tracker(small_config());
  EXPECT_FALSE(tracker.loaded());
  const auto result = tracker.step(testing::noise(1, 256));
  EXPECT_EQ(result.tracked_before, 0u);
  EXPECT_EQ(result.tracked_after, 0u);
}

TEST(Tracker, MatchingSignalSurvivesAndKeepsOffset) {
  EdgeTracker tracker(small_config());
  // Signal-set whose region at offset 100 equals the window exactly.
  const auto window = testing::noise(2, 256, 5.0);
  auto samples = testing::noise(3, 1000, 5.0);
  for (std::size_t i = 0; i < 256; ++i) {
    samples[100 + i] = window[i];
  }
  tracker.load({make_signal(1, true, samples, /*beta=*/100)});
  const auto result = tracker.step(window);
  EXPECT_EQ(result.tracked_after, 1u);
  EXPECT_EQ(result.removed_dissimilar, 0u);
  EXPECT_EQ(tracker.active()[0].beta, 100u);
}

TEST(Tracker, DissimilarSignalIsRemoved) {
  EdgeTracker tracker(small_config());
  tracker.load({make_signal(1, false, testing::noise(4, 1000, 5.0))});
  const auto result = tracker.step(testing::noise(5, 256, 5.0));
  EXPECT_EQ(result.removed_dissimilar, 1u);
  EXPECT_EQ(result.tracked_after, 0u);
}

TEST(Tracker, RematchScanAdvancesOffset) {
  EdgeTracker tracker(small_config());
  const auto window = testing::noise(6, 256, 5.0);
  auto samples = testing::noise(7, 1000, 5.0);
  // Plant the matching region ahead of the current offset, within the scan
  // range (stride 4 x 32 offsets = 124 samples ahead).
  for (std::size_t i = 0; i < 256; ++i) {
    samples[80 + i] = window[i];
  }
  tracker.load({make_signal(1, true, samples, /*beta=*/0)});
  const auto result = tracker.step(window);
  ASSERT_EQ(result.tracked_after, 1u);
  EXPECT_EQ(tracker.active()[0].beta, 80u);
}

TEST(Tracker, MatchBeyondScanRangeIsRemoved) {
  EmapConfig config = small_config();
  config.track_scan_stride = 4;
  config.track_max_scan_offsets = 8;  // scans only 28 samples ahead
  EdgeTracker tracker(config);
  const auto window = testing::noise(8, 256, 5.0);
  auto samples = testing::noise(9, 1000, 5.0);
  for (std::size_t i = 0; i < 256; ++i) {
    samples[500 + i] = window[i];
  }
  tracker.load({make_signal(1, true, samples, /*beta=*/0)});
  const auto result = tracker.step(window);
  EXPECT_EQ(result.removed_dissimilar, 1u);
}

TEST(Tracker, ExhaustedSignalIsRemovedAsExhausted) {
  EdgeTracker tracker(small_config());
  tracker.load({make_signal(1, true, testing::noise(10, 1000, 5.0),
                            /*beta=*/900)});
  const auto result = tracker.step(testing::noise(11, 256, 5.0));
  EXPECT_EQ(result.removed_exhausted, 1u);
  EXPECT_EQ(result.removed_dissimilar, 0u);
}

TEST(Tracker, TooShortSignalSetCountsExhausted) {
  EdgeTracker tracker(small_config());
  TrackedSignal stub = make_signal(1, false, testing::noise(12, 100, 5.0));
  tracker.load({stub});
  const auto result = tracker.step(testing::noise(13, 256, 5.0));
  EXPECT_EQ(result.removed_exhausted, 1u);
}

TEST(Tracker, StalenessCountsStepsAndResetsOnLoad) {
  EdgeTracker tracker(small_config());
  EXPECT_EQ(tracker.steps_since_load(), 0u);
  // A self-matching signal survives arbitrarily many steps.
  const auto window = testing::noise(40, 256, 5.0);
  auto samples = testing::noise(41, 1000, 5.0);
  for (std::size_t i = 0; i < 256; ++i) {
    samples[i] = window[i];
  }
  tracker.load({make_signal(1, false, samples)});
  EXPECT_EQ(tracker.steps_since_load(), 0u);
  for (std::size_t step = 1; step <= 7; ++step) {
    tracker.step(window);
    EXPECT_EQ(tracker.steps_since_load(), step);
  }
  // A fresh correlation set (the degraded edge finally reaching the cloud)
  // resets the staleness count.
  tracker.load({make_signal(2, false, samples)});
  EXPECT_EQ(tracker.steps_since_load(), 0u);
}

TEST(Tracker, AnomalyProbabilityIsEq5) {
  EdgeTracker tracker(small_config());
  const auto window = testing::noise(14, 256, 5.0);
  std::vector<TrackedSignal> set;
  for (int i = 0; i < 4; ++i) {
    auto samples = testing::noise(20 + static_cast<std::uint64_t>(i), 1000,
                                  5.0);
    for (std::size_t k = 0; k < 256; ++k) {
      samples[k] = window[k];
    }
    set.push_back(make_signal(static_cast<std::uint64_t>(i), i < 3, samples));
  }
  tracker.load(std::move(set));
  const auto result = tracker.step(window);
  EXPECT_EQ(result.tracked_after, 4u);
  EXPECT_DOUBLE_EQ(result.anomaly_probability, 0.75);
  EXPECT_DOUBLE_EQ(tracker.anomaly_probability(), 0.75);
}

TEST(Tracker, CloudCallFlagWhenBelowH) {
  EmapConfig config = small_config();
  config.tracking_threshold_h = 5;
  EdgeTracker tracker(config);
  tracker.load({make_signal(1, false, testing::noise(30, 1000, 5.0))});
  const auto result = tracker.step(testing::noise(31, 256, 5.0));
  EXPECT_TRUE(result.cloud_call_needed);
}

TEST(Tracker, NoCloudCallWhenEnoughTracked) {
  EmapConfig config = small_config();
  config.tracking_threshold_h = 1;
  EdgeTracker tracker(config);
  const auto window = testing::noise(32, 256, 5.0);
  auto samples = testing::noise(33, 1000, 5.0);
  for (std::size_t i = 0; i < 256; ++i) {
    samples[i] = window[i];
  }
  tracker.load({make_signal(1, true, samples)});
  const auto result = tracker.step(window);
  EXPECT_FALSE(result.cloud_call_needed);
}

TEST(Tracker, AbsOpsAreAccounted) {
  EdgeTracker tracker(small_config());
  tracker.load({make_signal(1, false, testing::noise(34, 1000, 5.0))});
  const auto result = tracker.step(testing::noise(35, 256, 5.0));
  EXPECT_GT(result.abs_ops, 0u);
}

TEST(Tracker, RejectsWrongWindowLength) {
  EdgeTracker tracker(small_config());
  tracker.load({make_signal(1, false, testing::noise(36, 1000))});
  EXPECT_THROW(tracker.step(testing::noise(37, 128)), InvalidArgument);
}

TEST(Tracker, LoadFromSearchCopiesSamples) {
  mdb::MdbStore store;
  mdb::SignalSet set;
  set.anomalous = true;
  set.class_tag = 1;
  set.samples = testing::to_f32(testing::noise(38, mdb::kSignalSetLength));
  store.insert(std::move(set));

  SearchResult search_result;
  SearchMatch match;
  match.store_index = 0;
  match.set_id = store.at(0).id;
  match.omega = 0.9;
  match.beta = 10;
  match.anomalous = true;
  search_result.matches.push_back(match);

  EdgeTracker tracker(small_config());
  tracker.load_from_search(search_result, store);
  ASSERT_EQ(tracker.active_count(), 1u);
  const auto& stored = store.at(0).samples;
  EXPECT_EQ(tracker.active()[0].samples,
            std::vector<double>(stored.begin(), stored.end()));
  EXPECT_EQ(tracker.active()[0].beta, 10u);
}

TEST(Tracker, LoadFromMessageMirrorsEntries) {
  net::CorrelationSetMessage message;
  net::CorrelationEntry entry;
  entry.set_id = 77;
  entry.omega = 0.85f;
  entry.beta = 5;
  entry.anomalous = 1;
  entry.class_tag = 2;
  entry.samples = testing::noise(39, 1000);
  message.entries.push_back(entry);

  EdgeTracker tracker(small_config());
  tracker.load_from_message(message);
  ASSERT_EQ(tracker.active_count(), 1u);
  EXPECT_EQ(tracker.active()[0].set_id, 77u);
  EXPECT_TRUE(tracker.active()[0].anomalous);
}

TEST(Tracker, ReloadReplacesPreviousSet) {
  EdgeTracker tracker(small_config());
  tracker.load({make_signal(1, false, testing::noise(40, 1000))});
  tracker.load({make_signal(2, true, testing::noise(41, 1000)),
                make_signal(3, true, testing::noise(42, 1000))});
  EXPECT_EQ(tracker.active_count(), 2u);
  EXPECT_DOUBLE_EQ(tracker.anomaly_probability(), 1.0);
}

}  // namespace
}  // namespace emap::core
