#include <gtest/gtest.h>

#include "emap/common/error.hpp"
#include "emap/core/cloud_node.hpp"
#include "emap/core/edge_node.hpp"
#include "emap/dsp/fft.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

TEST(EdgeNode, AcquireFiltersOutOfBandContent) {
  EdgeNode edge{EmapConfig{}};
  // 4 Hz tone is outside the 11-40 Hz passband.
  const auto raw = testing::sine(4.0, 256.0, 256, 10.0);
  // Warm the filter with a couple of windows, then measure.
  (void)edge.acquire_window(raw);
  const auto filtered = edge.acquire_window(raw);
  EXPECT_LT(dsp::band_power(filtered, 256.0, 2.0, 6.0), 0.5);
}

TEST(EdgeNode, AcquireKeepsInBandContent) {
  EdgeNode edge{EmapConfig{}};
  const auto raw = testing::sine(20.0, 256.0, 256, 10.0);
  (void)edge.acquire_window(raw);
  const auto filtered = edge.acquire_window(raw);
  EXPECT_GT(dsp::band_power(filtered, 256.0, 15.0, 25.0), 5.0);
}

TEST(EdgeNode, StreamingStateCarriesAcrossWindows) {
  EdgeNode continuous{EmapConfig{}};
  EdgeNode restarted{EmapConfig{}};
  const auto first = testing::noise(1, 256, 5.0);
  const auto second = testing::noise(2, 256, 5.0);
  (void)continuous.acquire_window(first);
  const auto with_history = continuous.acquire_window(second);
  const auto without_history = restarted.acquire_window(second);
  // The filter's 100-tap history must make the outputs differ at the head.
  double max_diff = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    max_diff = std::max(max_diff,
                        std::abs(with_history[i] - without_history[i]));
  }
  EXPECT_GT(max_diff, 0.1);
}

TEST(EdgeNode, ResetRestoresColdState) {
  EdgeNode edge{EmapConfig{}};
  const auto window = testing::noise(3, 256, 5.0);
  const auto cold = edge.acquire_window(window);
  edge.reset();
  const auto after_reset = edge.acquire_window(window);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_NEAR(after_reset[i], cold[i], 1e-12);
  }
}

TEST(EdgeNode, MakeUploadPackagesWindow) {
  EdgeNode edge{EmapConfig{}};
  const auto window = testing::noise(4, 256, 5.0);
  const auto message = edge.make_upload(9, window);
  EXPECT_EQ(message.sequence, 9u);
  EXPECT_EQ(message.samples.size(), 256u);
}

TEST(EdgeNode, MakeUploadRejectsBadLength) {
  EdgeNode edge{EmapConfig{}};
  EXPECT_THROW(edge.make_upload(0, testing::noise(5, 100)), InvalidArgument);
}

TEST(CloudNode, RespondReturnsAtMostTopK) {
  EmapConfig config;
  config.top_k = 10;
  config.delta = 0.5;
  CloudNode cloud(testing::small_mdb(2), config, /*threads=*/1);
  net::SignalUploadMessage request;
  request.sequence = 4;
  request.samples = testing::sine(16.0, 256.0, 256, 7.0);
  const auto response = cloud.respond(request);
  EXPECT_EQ(response.request_sequence, 4u);
  EXPECT_LE(response.entries.size(), 10u);
  for (const auto& entry : response.entries) {
    EXPECT_EQ(entry.samples.size(), mdb::kSignalSetLength);
    EXPECT_GT(entry.omega, 0.5f);
  }
}

TEST(CloudNode, RespondRejectsBadWindow) {
  CloudNode cloud(testing::small_mdb(1), EmapConfig{}, 1);
  net::SignalUploadMessage request;
  request.samples = testing::noise(6, 10);
  EXPECT_THROW(cloud.respond(request), InvalidArgument);
}

TEST(CloudNode, RespondStatsOutReflectsTheSearch) {
  CloudNode cloud(testing::small_mdb(1), EmapConfig{}, 1);
  net::SignalUploadMessage request;
  request.samples = testing::sine(18.0, 256.0, 256, 7.0);
  SearchStats stats;
  (void)cloud.respond(request, &stats);
  EXPECT_EQ(stats.sets_scanned, cloud.store().size());
  EXPECT_GT(stats.correlation_evals, 0u);
}

TEST(CloudNode, EntriesMirrorSearchMatches) {
  EmapConfig config;
  config.delta = 0.5;
  CloudNode cloud(testing::small_mdb(2), config, 1);
  const auto window = testing::sine(16.0, 256.0, 256, 7.0);
  const auto result = cloud.search(window);
  net::SignalUploadMessage request;
  request.samples.assign(window.begin(), window.end());
  const auto response = cloud.respond(request);
  ASSERT_EQ(response.entries.size(), result.matches.size());
  for (std::size_t i = 0; i < result.matches.size(); ++i) {
    EXPECT_EQ(response.entries[i].set_id, result.matches[i].set_id);
    EXPECT_EQ(response.entries[i].beta,
              static_cast<std::uint32_t>(result.matches[i].beta));
  }
}

}  // namespace
}  // namespace emap::core
