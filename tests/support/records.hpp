// Field-by-field comparison of per-window decision records.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "emap/core/pipeline.hpp"

namespace emap::testing {

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Expects `actual` to equal `expected` in every IterationRecord field,
/// doubles bit for bit.  The lengths must match.
inline void expect_same_records(
    const std::vector<core::IterationRecord>& actual,
    const std::vector<core::IterationRecord>& expected,
    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const core::IterationRecord& a = actual[i];
    const core::IterationRecord& e = expected[i];
    const std::string at = label + " window " + std::to_string(i);
    EXPECT_EQ(a.window_index, e.window_index) << at;
    EXPECT_TRUE(same_bits(a.t_sec, e.t_sec)) << at;
    EXPECT_EQ(a.set_loaded, e.set_loaded) << at;
    EXPECT_EQ(a.loaded_sequence, e.loaded_sequence) << at;
    EXPECT_TRUE(same_bits(a.pa_on_load, e.pa_on_load)) << at;
    EXPECT_EQ(a.tracked, e.tracked) << at;
    EXPECT_TRUE(same_bits(a.anomaly_probability, e.anomaly_probability))
        << at;
    EXPECT_EQ(a.anomaly_predicted, e.anomaly_predicted) << at;
    EXPECT_EQ(a.tracked_before, e.tracked_before) << at;
    EXPECT_EQ(a.tracked_after, e.tracked_after) << at;
    EXPECT_EQ(a.removed_dissimilar, e.removed_dissimilar) << at;
    EXPECT_EQ(a.removed_exhausted, e.removed_exhausted) << at;
    EXPECT_EQ(a.cloud_call_issued, e.cloud_call_issued) << at;
    EXPECT_EQ(a.no_call_reason, e.no_call_reason) << at;
    EXPECT_EQ(a.degraded, e.degraded) << at;
    EXPECT_TRUE(same_bits(a.track_device_sec, e.track_device_sec)) << at;
    EXPECT_EQ(a.abs_ops, e.abs_ops) << at;
    EXPECT_EQ(a.robust_state, e.robust_state) << at;
    EXPECT_EQ(a.shed_cap, e.shed_cap) << at;
    EXPECT_EQ(a.quality, e.quality) << at;
    EXPECT_EQ(a.breaker_rejected, e.breaker_rejected) << at;
    EXPECT_EQ(a.robust_critical, e.robust_critical) << at;
    EXPECT_EQ(a.recovered, e.recovered) << at;
  }
}

}  // namespace emap::testing
