#include "emap/core/search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "emap/common/error.hpp"
#include "emap/common/rng.hpp"
#include "emap/dsp/xcorr.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

// A store with one planted match: the probe is embedded (scaled) at offset
// 0 of set #3 — offset 0 is on every exponential-window probe grid, so
// Algorithm 1 is guaranteed to evaluate it.  (At an arbitrary offset the
// sliding window may legitimately skip a periodic pattern when a probe
// lands anti-phase; the exhaustive baseline covers that case.)
struct PlantedFixture {
  mdb::MdbStore store;
  std::vector<double> probe;
  static constexpr std::size_t kPlantedIndex = 3;
  static constexpr std::size_t kPlantedOffset = 0;

  PlantedFixture() {
    probe = testing::sine(19.0, 256.0, 256, 5.0);
    for (double& v : probe) {
      v += 0.1;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      mdb::SignalSet set;
      set.samples =
          testing::to_f32(testing::noise(1000 + i, mdb::kSignalSetLength, 5.0));
      set.anomalous = (i % 2 == 1);
      set.source = "fixture";
      if (i == kPlantedIndex) {
        for (std::size_t k = 0; k < probe.size(); ++k) {
          set.samples[kPlantedOffset + k] = 1.3 * probe[k] + 0.7;
        }
      }
      store.insert(std::move(set));
    }
  }
};

TEST(SkipForOmega, PaperValuesAtAlpha0004) {
  const EmapConfig config;  // alpha = 0.004
  CrossCorrelationSearch search(config);
  // omega = 1 -> alpha^0 = 1 (finest step).
  EXPECT_EQ(search.skip_for_omega(1.0), 1u);
  // omega = 0 -> alpha^-1 = 250 (coarsest step).
  EXPECT_EQ(search.skip_for_omega(0.0), 250u);
  // Negative omegas are clamped to zero first (Algorithm 1 lines 9-11).
  EXPECT_EQ(search.skip_for_omega(-0.7), 250u);
  // Mid correlation: 0.004^(-0.2) ~ 3.
  EXPECT_EQ(search.skip_for_omega(0.8), 3u);
}

TEST(SkipForOmega, MonotoneDecreasingInOmega) {
  CrossCorrelationSearch search{EmapConfig{}};
  std::size_t previous = SIZE_MAX;
  for (double omega = 0.0; omega <= 1.0; omega += 0.05) {
    const std::size_t skip = search.skip_for_omega(omega);
    EXPECT_LE(skip, previous);
    previous = skip;
  }
}

TEST(SkipForOmega, RespectsMaxSkipClamp) {
  EmapConfig config;
  config.alpha = 0.0001;
  config.max_skip = 100;
  CrossCorrelationSearch search(config);
  EXPECT_EQ(search.skip_for_omega(0.0), 100u);
}

// --- the skip table: skip() must equal skip_for_omega() for every ω ---

// The configs the table is checked under: the paper's α, a slow decay,
// saturating (α = 1e-6 against max_skip 4096) and tiny caps, and α = 0.16,
// whose value at the cell edge ω = ½ is the rounding edge 0.16^(-½) = 2.5.
std::vector<EmapConfig> skip_configs() {
  std::vector<EmapConfig> configs(6);
  configs[1].alpha = 0.5;
  configs[2].alpha = 1e-6;
  configs[2].max_skip = 4096;
  configs[3].max_skip = 1;
  configs[4].max_skip = 7;
  configs[5].alpha = 0.16;
  return configs;
}

std::string describe(const EmapConfig& config) {
  return "alpha=" + std::to_string(config.alpha) +
         " max_skip=" + std::to_string(config.max_skip);
}

// Checks skip() at ω and at every ω up to `ulps` representable steps away
// on either side; returns the number of disagreements.
std::size_t mismatches_around(const CrossCorrelationSearch& search,
                              double omega, int ulps) {
  std::size_t bad = 0;
  double down = omega;
  double up = omega;
  for (int k = 0; k <= ulps; ++k) {
    for (const double w : {down, up}) {
      if (search.skip(w) != search.skip_for_omega(w)) {
        ADD_FAILURE() << "omega " << w << ": table " << search.skip(w)
                      << " vs " << search.skip_for_omega(w);
        ++bad;
      }
    }
    down = std::nextafter(down, -2.0);
    up = std::nextafter(up, 2.0);
  }
  return bad;
}

TEST(SkipForOmega, TableMatchesAtCellEdgesAndSteps) {
  constexpr double kCells = CrossCorrelationSearch::kSkipCells;
  for (const EmapConfig& config : skip_configs()) {
    SCOPED_TRACE(describe(config));
    const CrossCorrelationSearch search(config);
    std::size_t steps = 0;
    for (std::size_t j = 0; j < CrossCorrelationSearch::kSkipCells; ++j) {
      const double a = static_cast<double>(j) / kCells;
      const double b = static_cast<double>(j + 1) / kCells;
      ASSERT_EQ(mismatches_around(search, a, 64), 0u) << "cell " << j;
      // Locate each step of skip_for_omega inside the cell independently
      // of the table, then probe it and the edges of its guard band.
      double lo = a;
      double hi = b;
      const std::size_t below = search.skip_for_omega(lo);
      if (search.skip_for_omega(hi) == below) {
        continue;
      }
      for (double mid = lo + (hi - lo) / 2; mid > lo && mid < hi;
           mid = lo + (hi - lo) / 2) {
        (search.skip_for_omega(mid) == below ? lo : hi) = mid;
      }
      ++steps;
      const double guard = CrossCorrelationSearch::kSkipGuard;
      for (const double t : {hi, hi - guard, hi + guard}) {
        ASSERT_EQ(mismatches_around(search, t, 64), 0u) << "step in " << j;
      }
    }
    if (config.max_skip > 1) {
      EXPECT_GT(steps, 0u);
    }
  }
}

TEST(SkipForOmega, TableMatchesOnTenMillionSeededOmegas) {
  const auto configs = skip_configs();
  std::vector<CrossCorrelationSearch> searches;
  for (const EmapConfig& config : configs) {
    searches.emplace_back(config);
  }
  Rng rng(0x5c1bu);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < 10'000'000; ++i) {
    const double omega = rng.uniform(-1.5, 1.5);
    const CrossCorrelationSearch& search = searches[i % searches.size()];
    if (search.skip(omega) != search.skip_for_omega(omega) && bad++ < 5) {
      ADD_FAILURE() << describe(configs[i % configs.size()]) << " omega "
                    << omega << ": table " << search.skip(omega) << " vs "
                    << search.skip_for_omega(omega);
    }
  }
  EXPECT_EQ(bad, 0u);
}

TEST(SkipForOmega, TableMatchesAtSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      kInf,
      -kInf,
      kDenorm,
      -kDenorm,
      std::numeric_limits<double>::min() / 2,  // subnormal
      std::numeric_limits<double>::min(),
      std::nextafter(1.0, 0.0),
      1.0,
      std::nextafter(1.0, 2.0),
      -1.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  for (const EmapConfig& config : skip_configs()) {
    SCOPED_TRACE(describe(config));
    const CrossCorrelationSearch search(config);
    for (const double omega : specials) {
      EXPECT_EQ(search.skip(omega), search.skip_for_omega(omega))
          << "omega " << omega;
    }
    // ω ≤ 0 clamps to 0 before the power, so all of them share one answer.
    EXPECT_EQ(search.skip(-0.0), search.skip_for_omega(0.0));
    EXPECT_EQ(search.skip(-kInf), search.skip_for_omega(0.0));
  }
}

// settled_skip(lo, hi) answers only a skip that skip_for_omega gives at
// both ends and everywhere between; the screened scan steps by it without
// knowing the exact ω inside [lo, hi].
TEST(SkipForOmega, SettledSkipHoldsOverItsWholeInterval) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const EmapConfig& config : skip_configs()) {
    SCOPED_TRACE(describe(config));
    const CrossCorrelationSearch search(config);
    Rng rng(0x5e771eu);
    std::size_t settled = 0;
    std::size_t narrow = 0;
    for (std::size_t i = 0; i < 200'000; ++i) {
      const double width = std::pow(10.0, rng.uniform(-12.0, -2.0));
      const double lo = rng.uniform(-0.05, 1.0);
      const double hi = lo + width;
      const std::size_t skip = search.settled_skip(lo, hi);
      narrow += width < 1e-5 ? 1 : 0;
      if (skip == 0) {
        continue;
      }
      ++settled;
      for (std::size_t k = 0; k <= 16; ++k) {
        const double omega = k == 16 ? hi : lo + width * k / 16.0;
        ASSERT_EQ(search.skip_for_omega(omega), skip)
            << "[" << lo << ", " << hi << "] at " << omega;
      }
    }
    // Nearly every narrow interval settles (steps are rare at this scale),
    // also where min(α^(ω-1), max_skip) saturates.
    EXPECT_GT(settled, narrow * 9 / 10);
    // Around a located step, no interval settles.
    for (double from = 0.0; from < 0.999; from += 1.0 / 64) {
      double a = from;
      double b = std::min(from + 1.0 / 64, 0.999);
      if (search.skip_for_omega(a) == search.skip_for_omega(b)) {
        continue;
      }
      while (b - a > 1e-15) {
        const double mid = a + (b - a) / 2;
        (search.skip_for_omega(mid) == search.skip_for_omega(a) ? a : b) = mid;
      }
      EXPECT_EQ(search.settled_skip(a - 1e-12, b + 1e-12), 0u) << "step " << b;
    }
    EXPECT_EQ(search.settled_skip(-2.0, -1.0), search.skip_for_omega(0.0));
    EXPECT_EQ(search.settled_skip(kNan, 0.5), 0u);
    EXPECT_EQ(search.settled_skip(0.5, kNan), 0u);
    EXPECT_EQ(search.settled_skip(0.5, 0.4), 0u);
    EXPECT_EQ(search.settled_skip(0.999, 1.0), 0u);
  }
}

TEST(Search, FindsPlantedMatchAtCorrectOffset) {
  PlantedFixture fixture;
  CrossCorrelationSearch search{EmapConfig{}};
  const auto result = search.search(fixture.probe, fixture.store);
  ASSERT_FALSE(result.matches.empty());
  const auto& best = result.matches.front();
  EXPECT_EQ(best.store_index, PlantedFixture::kPlantedIndex);
  EXPECT_EQ(best.beta, PlantedFixture::kPlantedOffset);
  EXPECT_GT(best.omega, 0.95);
}

TEST(Search, MatchCarriesLabelAndId) {
  PlantedFixture fixture;
  CrossCorrelationSearch search{EmapConfig{}};
  const auto result = search.search(fixture.probe, fixture.store);
  ASSERT_FALSE(result.matches.empty());
  const auto& best = result.matches.front();
  const auto& planted = fixture.store.at(PlantedFixture::kPlantedIndex);
  EXPECT_EQ(best.set_id, planted.id);
  EXPECT_EQ(best.anomalous, planted.anomalous);
}

TEST(Search, ResultsSortedDescendingByOmega) {
  PlantedFixture fixture;
  EmapConfig config;
  config.delta = 0.0;  // accept everything to exercise ordering
  CrossCorrelationSearch search(config);
  const auto result = search.search(fixture.probe, fixture.store);
  for (std::size_t i = 1; i < result.matches.size(); ++i) {
    EXPECT_GE(result.matches[i - 1].omega, result.matches[i].omega);
  }
}

TEST(Search, TopKLimitRespected) {
  PlantedFixture fixture;
  EmapConfig config;
  config.delta = -0.99;
  config.top_k = 5;
  CrossCorrelationSearch search(config);
  const auto result = search.search(fixture.probe, fixture.store);
  EXPECT_LE(result.matches.size(), 5u);
}

TEST(Search, StatsAccountEvaluations) {
  PlantedFixture fixture;
  CrossCorrelationSearch search{EmapConfig{}};
  const auto result = search.search(fixture.probe, fixture.store);
  EXPECT_GT(result.stats.correlation_evals, 0u);
  EXPECT_EQ(result.stats.mac_ops, result.stats.correlation_evals * 256u);
  EXPECT_EQ(result.stats.sets_scanned, fixture.store.size());
  EXPECT_GE(result.stats.candidates, result.matches.size());
}

TEST(Search, ParallelMatchesSerial) {
  PlantedFixture fixture;
  EmapConfig config;
  config.delta = 0.3;
  ThreadPool pool(4);
  CrossCorrelationSearch serial(config, nullptr);
  CrossCorrelationSearch parallel(config, &pool);
  const auto a = serial.search(fixture.probe, fixture.store);
  const auto b = parallel.search(fixture.probe, fixture.store);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].set_id, b.matches[i].set_id);
    EXPECT_EQ(a.matches[i].beta, b.matches[i].beta);
    EXPECT_DOUBLE_EQ(a.matches[i].omega, b.matches[i].omega);
  }
  EXPECT_EQ(a.stats.correlation_evals, b.stats.correlation_evals);
}

TEST(Search, EmptyStoreGivesEmptyResult) {
  mdb::MdbStore store;
  CrossCorrelationSearch search{EmapConfig{}};
  const auto probe = testing::noise(1, 256);
  const auto result = search.search(probe, store);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.stats.correlation_evals, 0u);
}

TEST(Search, RejectsWrongWindowLength) {
  mdb::MdbStore store;
  CrossCorrelationSearch search{EmapConfig{}};
  EXPECT_THROW(search.search(testing::noise(1, 100), store),
               InvalidArgument);
}

TEST(Search, HigherAlphaEvaluatesMoreOffsets) {
  // Fig. 7a mechanism: larger alpha -> smaller skips -> more evaluations.
  PlantedFixture fixture;
  EmapConfig coarse;
  coarse.alpha = 0.0008;
  EmapConfig fine;
  fine.alpha = 0.015;
  const auto r_coarse =
      CrossCorrelationSearch(coarse).search(fixture.probe, fixture.store);
  const auto r_fine =
      CrossCorrelationSearch(fine).search(fixture.probe, fixture.store);
  EXPECT_GT(r_fine.stats.correlation_evals,
            r_coarse.stats.correlation_evals);
}

TEST(SelectTopK, TieBreaksAreDeterministic) {
  std::vector<SearchMatch> candidates;
  for (std::uint64_t id : {5, 3, 9}) {
    SearchMatch match;
    match.omega = 0.9;
    match.set_id = id;
    candidates.push_back(match);
  }
  const auto top = select_top_k(candidates, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].set_id, 3u);
  EXPECT_EQ(top[1].set_id, 5u);
}

TEST(Search, DegenerateConstantSetNeverMatches) {
  mdb::MdbStore store;
  mdb::SignalSet flat;
  flat.samples.assign(mdb::kSignalSetLength, 3.0);
  store.insert(std::move(flat));
  CrossCorrelationSearch search{EmapConfig{}};
  const auto probe = testing::noise(2, 256);
  const auto result = search.search(probe, store);
  EXPECT_TRUE(result.matches.empty());
}

}  // namespace
}  // namespace emap::core
