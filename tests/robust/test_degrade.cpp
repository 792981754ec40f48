// DegradationController unit + property tests: entry on burn, miss or
// queue pressure, hysteretic recovery, CRITICAL hold, and the
// monotone-per-window shed property the header promises.
#include "emap/robust/degrade.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"
#include "emap/obs/export.hpp"
#include "emap/obs/slo.hpp"

namespace emap::robust {
namespace {

WindowSignal clean_window(std::size_t index) {
  WindowSignal signal;
  signal.window_index = index;
  signal.t_sec = static_cast<double>(index + 1);
  return signal;
}

WindowSignal miss_window(std::size_t index) {
  WindowSignal signal = clean_window(index);
  signal.deadline_miss = true;
  signal.burn_rate = 16.7;  // what one miss does to a 99.9% rolling SLO
  return signal;
}

TEST(Degrade, StaysNominalOnCleanWindows) {
  DegradationController controller;
  for (std::size_t i = 0; i < 50; ++i) {
    controller.observe_window(clean_window(i));
  }
  EXPECT_EQ(controller.state(), DegradeState::kNominal);
  EXPECT_EQ(controller.shed_level(), 0u);
  const DegradeSummary summary = controller.summary();
  EXPECT_EQ(summary.windows_nominal, 50u);
  EXPECT_EQ(summary.transitions, 0u);
  EXPECT_FALSE(summary.entered_degraded);
}

TEST(Degrade, DeadlineMissEntersDegradedAtLevelOne) {
  DegradationController controller;
  controller.observe_window(miss_window(0));
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
  EXPECT_EQ(controller.shed_level(), 1u);
  EXPECT_TRUE(controller.defer_flushes());
}

TEST(Degrade, ElevatedBurnRateAloneEntersDegraded) {
  DegradationController controller;
  WindowSignal signal = clean_window(0);
  signal.burn_rate = obs::kBurnRateLimit;  // at the limit: not burning
  controller.observe_window(signal);
  EXPECT_EQ(controller.state(), DegradeState::kNominal);
  signal = clean_window(1);
  signal.burn_rate = 2.0;  // above the limit, no hard miss yet
  controller.observe_window(signal);
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
}

WindowSignal pressured_window(std::size_t index, double queue_pressure) {
  WindowSignal signal = clean_window(index);
  signal.queue_pressure = queue_pressure;
  return signal;
}

// Stage-queue backlog is a shed signal of its own: at the enter threshold
// it leaves NOMINAL even though the window's latency was clean.
TEST(Degrade, QueuePressureAtTheEnterThresholdEntersDegraded) {
  DegradationController controller;
  controller.observe_window(pressured_window(0, kQueuePressureEnter));
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
  EXPECT_EQ(controller.shed_level(), 1u);
}

TEST(Degrade, QueuePressureBelowTheEnterThresholdStaysNominal) {
  DegradationController controller;
  for (std::size_t i = 0; i < 20; ++i) {
    controller.observe_window(pressured_window(i, kQueuePressureEnter - 0.01));
  }
  EXPECT_EQ(controller.state(), DegradeState::kNominal);
  EXPECT_FALSE(controller.summary().entered_degraded);
}

// Recovery waits for the backlog to drain: a pressured window with clean
// latency is not clean, so it never advances the recovery streak and
// restarts one in progress.
TEST(Degrade, QueuePressuredWindowDoesNotCountAsCleanTowardRecovery) {
  DegradationController controller;
  controller.observe_window(miss_window(0));
  ASSERT_EQ(controller.state(), DegradeState::kDegraded);
  std::size_t w = 1;
  for (std::size_t i = 0; i < 20; ++i) {
    controller.observe_window(pressured_window(w++, 0.9));
    ASSERT_EQ(controller.state(), DegradeState::kDegraded) << "window " << w;
  }
  // One clean window short of recovery, then a pressured one restarts the
  // streak.
  for (std::size_t i = 0; i + 1 < kRecoverAfter; ++i) {
    controller.observe_window(clean_window(w++));
  }
  controller.observe_window(pressured_window(w++, 0.9));
  for (std::size_t i = 0; i + 1 < kRecoverAfter; ++i) {
    controller.observe_window(clean_window(w++));
  }
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
  controller.observe_window(clean_window(w++));
  EXPECT_EQ(controller.state(), DegradeState::kRecovering);
  EXPECT_EQ(controller.shed_level(), 1u);
}

TEST(Degrade, StaleBurnDoesNotReenterAfterRecovery) {
  DegradationController controller;
  controller.observe_window(miss_window(0));  // DEGRADED level 1
  // Recover fully: clean windows still carry the rolling burn of the miss.
  std::size_t w = 1;
  while (controller.state() != DegradeState::kNominal) {
    WindowSignal signal = clean_window(w++);
    signal.burn_rate = 16.7;
    controller.observe_window(signal);
    ASSERT_LT(w, 20u);
  }
  // The stale burn echo must not re-trip the controller...
  for (std::size_t i = 0; i < 30; ++i) {
    WindowSignal signal = clean_window(w++);
    signal.burn_rate = 16.7;
    controller.observe_window(signal);
  }
  EXPECT_EQ(controller.state(), DegradeState::kNominal);
  // ...but a fresh miss enters as usual.
  controller.observe_window(miss_window(w));
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
}

TEST(Degrade, SustainedMissesEscalateOneLevelAtATime) {
  DegradationController controller;
  std::size_t w = 0;
  controller.observe_window(miss_window(w++));  // enter, level 1
  ASSERT_EQ(controller.shed_level(), 1u);
  for (std::size_t i = 0; i + 1 < kEscalateAfter; ++i) {
    controller.observe_window(miss_window(w++));
    EXPECT_EQ(controller.shed_level(), 1u);  // misses into the streak
  }
  controller.observe_window(miss_window(w++));
  EXPECT_EQ(controller.shed_level(), 2u);  // kEscalateAfter misses
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
}

TEST(Degrade, CapStrideAndRecallScaleWithLevel) {
  DegradationController controller;
  EXPECT_EQ(controller.tracked_cap(100), 100u);
  EXPECT_EQ(controller.stride_multiplier(), 1u);
  EXPECT_EQ(controller.recall_threshold(30, 100), 30u);

  controller.observe_window(miss_window(0));  // level 1
  EXPECT_EQ(controller.tracked_cap(100), 50u);
  EXPECT_EQ(controller.stride_multiplier(), 2u);
  EXPECT_EQ(controller.recall_threshold(30, 100), 15u);

  for (std::size_t w = 1; w <= kEscalateAfter; ++w) {
    controller.observe_window(miss_window(w));
  }
  ASSERT_EQ(controller.shed_level(), 2u);
  EXPECT_EQ(controller.tracked_cap(100), 25u);
  EXPECT_EQ(controller.stride_multiplier(), 4u);
  // Proportional: 30 * 25 / 100, so a shed set does not instantly retrip
  // the cloud-call threshold.
  EXPECT_EQ(controller.recall_threshold(30, 100), 7u);
}

TEST(Degrade, SustainedMissesAtMaxLevelReachCriticalThenRecover) {
  DegradationController controller;
  std::size_t w = 0;
  // Enter + escalate to the deepest level.
  while (controller.shed_level() < kMaxShedLevel) {
    controller.observe_window(miss_window(w++));
    ASSERT_LT(w, 20u);
  }
  // kCriticalAfter misses at the deepest level give up tracking.
  for (std::size_t i = 0; i < kCriticalAfter; ++i) {
    ASSERT_NE(controller.state(), DegradeState::kCritical);
    controller.observe_window(miss_window(w++));
  }
  EXPECT_EQ(controller.state(), DegradeState::kCritical);
  EXPECT_TRUE(controller.critical());
  // CRITICAL holds for kCriticalHold windows (they carry no latency
  // observation) then attempts recovery.
  WindowSignal held = clean_window(w);
  held.no_observation = true;
  for (std::size_t i = 0; i + 1 < kCriticalHold; ++i) {
    held.window_index = w++;
    controller.observe_window(held);
    EXPECT_EQ(controller.state(), DegradeState::kCritical);
  }
  held.window_index = w++;
  controller.observe_window(held);
  EXPECT_EQ(controller.state(), DegradeState::kRecovering);
  EXPECT_EQ(controller.shed_level(), kMaxShedLevel);
}

TEST(Degrade, RecoveringStepsUpHystereticallyToNominal) {
  DegradationController controller;
  std::size_t w = 0;
  controller.observe_window(miss_window(w++));  // DEGRADED level 1
  for (std::size_t i = 0; i < kRecoverAfter; ++i) {
    ASSERT_EQ(controller.state(), DegradeState::kDegraded);
    controller.observe_window(clean_window(w++));
  }
  ASSERT_EQ(controller.state(), DegradeState::kRecovering);
  ASSERT_EQ(controller.shed_level(), 1u);
  // kStepUpAfter clean windows per restored level, then NOMINAL.
  for (std::size_t i = 0; i < kStepUpAfter; ++i) {
    ASSERT_EQ(controller.shed_level(), 1u);
    controller.observe_window(clean_window(w++));
  }
  EXPECT_EQ(controller.state(), DegradeState::kRecovering);
  EXPECT_EQ(controller.shed_level(), 0u);
  for (std::size_t i = 0; i < kStepUpAfter; ++i) {
    ASSERT_EQ(controller.state(), DegradeState::kRecovering);
    controller.observe_window(clean_window(w++));
  }
  EXPECT_EQ(controller.state(), DegradeState::kNominal);
  EXPECT_FALSE(controller.defer_flushes());
}

TEST(Degrade, MissDuringRecoveryFallsBackToDegraded) {
  DegradationController controller;
  std::size_t w = 0;
  controller.observe_window(miss_window(w++));
  for (std::size_t i = 0; i < kRecoverAfter; ++i) {
    controller.observe_window(clean_window(w++));
  }
  ASSERT_EQ(controller.state(), DegradeState::kRecovering);
  controller.observe_window(miss_window(w));
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
}

TEST(Degrade, NearMissHoldsPositionInBothDirections) {
  DegradationController controller;
  controller.observe_window(miss_window(0));
  WindowSignal near = clean_window(1);
  near.near_miss = true;
  for (std::size_t i = 1; i < 20; ++i) {
    near.window_index = i;
    controller.observe_window(near);
  }
  // Neither escalated nor recovered: the edge is marginal, hold at level 1.
  EXPECT_EQ(controller.state(), DegradeState::kDegraded);
  EXPECT_EQ(controller.shed_level(), 1u);
}

TEST(Degrade, StageStuckForcesCriticalImmediately) {
  DegradationController controller;
  WindowSignal signal = clean_window(0);
  signal.stage_stuck = true;
  controller.observe_window(signal);
  EXPECT_EQ(controller.state(), DegradeState::kCritical);
  EXPECT_EQ(controller.shed_level(), kMaxShedLevel);
}

TEST(Degrade, ForceCriticalAndTransitionLog) {
  DegradationController controller;
  controller.force_critical(7, 8.0);
  EXPECT_EQ(controller.state(), DegradeState::kCritical);
  ASSERT_EQ(controller.transitions().size(), 1u);
  EXPECT_EQ(controller.transitions()[0].from, DegradeState::kNominal);
  EXPECT_EQ(controller.transitions()[0].to, DegradeState::kCritical);
  EXPECT_EQ(controller.transitions()[0].window_index, 7u);
  EXPECT_DOUBLE_EQ(controller.transitions()[0].t_sec, 8.0);
}

// A decoded checkpoint is outside input: a shed level past the deepest one
// is refused.
TEST(Degrade, RestoreRejectsAShedLevelPastTheDeepest) {
  DegradationController controller;
  DegradeCheckpoint saved = controller.checkpoint();
  saved.shed_level = kMaxShedLevel;
  EXPECT_NO_THROW(controller.restore(saved));
  EXPECT_EQ(controller.shed_level(), kMaxShedLevel);
  saved.shed_level = kMaxShedLevel + 1;
  EXPECT_THROW(controller.restore(saved), InvalidArgument);
}

TEST(Degrade, MetricsExportStateAndTransitions) {
  obs::MetricsRegistry registry;
  DegradationController controller(&registry);
  controller.observe_window(miss_window(0));
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("emap_robust_state 1"), std::string::npos);
  EXPECT_NE(text.find("emap_robust_shed_level 1"), std::string::npos);
  EXPECT_NE(text.find("emap_robust_transitions_total{from=\"nominal\","
                      "to=\"degraded\"} 1"),
            std::string::npos);
}

// Property (promised in the header): within any single window the shed
// level moves by at most one step, whatever the signal history.
TEST(DegradeProperty, ShedLevelIsMonotonePerWindow) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DegradationController controller;
    std::size_t previous = controller.shed_level();
    for (std::size_t w = 0; w < 400; ++w) {
      WindowSignal signal = clean_window(w);
      signal.deadline_miss = rng.uniform() < 0.3;
      signal.near_miss = !signal.deadline_miss && rng.uniform() < 0.2;
      signal.burn_rate = rng.uniform() * 3.0;
      signal.no_observation = rng.uniform() < 0.1;
      signal.stage_stuck = rng.uniform() < 0.02;
      controller.observe_window(signal);
      const std::size_t level = controller.shed_level();
      const auto delta = static_cast<long long>(level) -
                         static_cast<long long>(previous);
      // stage_stuck jumps straight to the deepest level by design; every
      // other path moves one step at a time.
      if (!signal.stage_stuck) {
        EXPECT_LE(std::llabs(delta), 1ll)
            << "seed " << seed << " window " << w;
      }
      EXPECT_LE(level, kMaxShedLevel);
      previous = level;
    }
  }
}

// Property: summary window counts partition the observed windows.
TEST(DegradeProperty, SummaryWindowCountsPartitionTheRun) {
  Rng rng(42);
  DegradationController controller;
  const std::size_t windows = 500;
  for (std::size_t w = 0; w < windows; ++w) {
    WindowSignal signal = clean_window(w);
    signal.deadline_miss = rng.uniform() < 0.25;
    controller.observe_window(signal);
  }
  const DegradeSummary summary = controller.summary();
  EXPECT_EQ(summary.windows_nominal + summary.windows_degraded +
                summary.windows_critical + summary.windows_recovering,
            windows);
}

}  // namespace
}  // namespace emap::robust
