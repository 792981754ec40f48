#include "emap/core/predictor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "emap/common/error.hpp"
#include "emap/robust/checkpoint.hpp"

namespace emap::core {
namespace {

// Immediate-alarm configuration (persistence 1) for the threshold tests;
// the persistence mechanism has its own tests below.
EmapConfig config_with(double high, double rise, double base) {
  EmapConfig config;
  config.predict_high_probability = high;
  config.predict_rise_threshold = rise;
  config.predict_base_probability = base;
  config.predict_persistence = 1;
  return config;
}

TEST(Predictor, StartsUnalarmed) {
  AnomalyPredictor predictor{EmapConfig{}};
  EXPECT_FALSE(predictor.anomaly_predicted());
  EXPECT_LT(predictor.first_alarm_sec(), 0.0);
  EXPECT_DOUBLE_EQ(predictor.latest(), 0.0);
}

TEST(Predictor, HighProbabilityTriggersImmediately) {
  AnomalyPredictor predictor(config_with(0.8, 0.2, 0.4));
  predictor.observe(0.85, 12.0);
  EXPECT_TRUE(predictor.anomaly_predicted());
  EXPECT_DOUBLE_EQ(predictor.first_alarm_sec(), 12.0);
}

TEST(Predictor, LowFlatSeriesNeverAlarms) {
  AnomalyPredictor predictor(config_with(0.8, 0.2, 0.4));
  for (int i = 0; i < 50; ++i) {
    predictor.observe(0.1, static_cast<double>(i));
  }
  EXPECT_FALSE(predictor.anomaly_predicted());
}

TEST(Predictor, RisingSeriesAboveBaseAlarms) {
  AnomalyPredictor predictor(config_with(0.9, 0.15, 0.4));
  const double series[] = {0.1, 0.15, 0.2, 0.35, 0.5, 0.6};
  for (int i = 0; i < 6; ++i) {
    predictor.observe(series[i], static_cast<double>(i));
  }
  EXPECT_TRUE(predictor.anomaly_predicted());
}

TEST(Predictor, RiseBelowBaseDoesNotAlarm) {
  AnomalyPredictor predictor(config_with(0.9, 0.1, 0.5));
  const double series[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.35};
  for (int i = 0; i < 6; ++i) {
    predictor.observe(series[i], static_cast<double>(i));
  }
  EXPECT_FALSE(predictor.anomaly_predicted());
}

TEST(Predictor, AlarmLatches) {
  AnomalyPredictor predictor(config_with(0.8, 0.2, 0.4));
  predictor.observe(0.9, 5.0);
  predictor.observe(0.0, 6.0);
  predictor.observe(0.0, 7.0);
  EXPECT_TRUE(predictor.anomaly_predicted());
  EXPECT_DOUBLE_EQ(predictor.first_alarm_sec(), 5.0);
}

TEST(Predictor, TrendRiseComputesHalfWindowDifference) {
  EmapConfig config;
  config.predict_trend_window = 4;
  AnomalyPredictor predictor(config);
  for (double p : {0.1, 0.1, 0.5, 0.5}) {
    predictor.observe(p, 0.0);
  }
  EXPECT_NEAR(predictor.trend_rise(), 0.4, 1e-12);
}

TEST(Predictor, RejectsOutOfRangeProbability) {
  AnomalyPredictor predictor{EmapConfig{}};
  EXPECT_THROW(predictor.observe(-0.1, 0.0), InvalidArgument);
  EXPECT_THROW(predictor.observe(1.1, 0.0), InvalidArgument);
}

TEST(Predictor, ResetClearsEverything) {
  AnomalyPredictor predictor(config_with(0.8, 0.2, 0.4));
  predictor.observe(0.9, 5.0);
  predictor.reset();
  EXPECT_FALSE(predictor.anomaly_predicted());
  EXPECT_TRUE(predictor.history().empty());
  EXPECT_LT(predictor.first_alarm_sec(), 0.0);
}

TEST(Predictor, PersistenceRequiresConsecutiveHits) {
  EmapConfig config = config_with(0.8, 0.2, 0.4);
  config.predict_persistence = 2;
  AnomalyPredictor predictor(config);
  predictor.observe(0.9, 1.0);
  EXPECT_FALSE(predictor.anomaly_predicted()) << "single spike must not alarm";
  predictor.observe(0.1, 2.0);  // breaks the streak
  predictor.observe(0.9, 3.0);
  EXPECT_FALSE(predictor.anomaly_predicted());
  predictor.observe(0.9, 4.0);  // second consecutive hit
  EXPECT_TRUE(predictor.anomaly_predicted());
  EXPECT_DOUBLE_EQ(predictor.first_alarm_sec(), 4.0);
}

TEST(Predictor, DefaultConfigUsesPersistence) {
  AnomalyPredictor predictor{EmapConfig{}};
  predictor.observe(0.95, 1.0);
  EXPECT_FALSE(predictor.anomaly_predicted());
  predictor.observe(0.95, 2.0);
  EXPECT_TRUE(predictor.anomaly_predicted());
}

TEST(Predictor, HistoryKeepsOnlyTheTrendWindow) {
  const EmapConfig config;
  AnomalyPredictor predictor{config};
  for (int i = 0; i < 10; ++i) {
    predictor.observe(0.05 * i, static_cast<double>(i));
  }
  ASSERT_EQ(config.predict_trend_window, 5u);
  const std::vector<double> newest = {0.05 * 5, 0.05 * 6, 0.05 * 7, 0.05 * 8,
                                      0.05 * 9};
  EXPECT_EQ(predictor.history(), newest);
  EXPECT_DOUBLE_EQ(predictor.latest(), 0.45);
}

TEST(Predictor, RestoreKeepsTheNewestTrendWindow) {
  AnomalyPredictor predictor{EmapConfig{}};
  predictor.restore({0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}, false, -1.0, 0);
  EXPECT_EQ(predictor.history(),
            (std::vector<double>{0.3, 0.4, 0.5, 0.6, 0.7}));
}

// Snapshot bytes of the predictor part alone, captured the way the session
// captures it at each window boundary.
std::size_t predictor_snapshot_bytes(const AnomalyPredictor& predictor) {
  robust::SessionState state;
  state.predictor.history = predictor.history();
  state.predictor.alarmed = predictor.anomaly_predicted();
  state.predictor.alarm_time_sec = predictor.first_alarm_sec();
  state.predictor.consecutive = predictor.consecutive_hits();
  return robust::encode_session(state).size();
}

TEST(Predictor, SnapshotSizeDoesNotGrowWithSessionLength) {
  AnomalyPredictor predictor{EmapConfig{}};
  std::size_t at_60 = 0;
  for (int w = 1; w <= 600; ++w) {
    predictor.observe(0.001 * (w % 97), static_cast<double>(w));
    if (w == 60) {
      at_60 = predictor_snapshot_bytes(predictor);
    }
  }
  EXPECT_EQ(predictor_snapshot_bytes(predictor), at_60);
}

}  // namespace
}  // namespace emap::core
