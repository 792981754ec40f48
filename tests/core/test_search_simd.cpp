// Algorithm 1 scan under SIMD dispatch and the lockstep multi-set walk:
// the lockstep scan must reproduce a set-by-set, offset-by-offset
// correlate() walk bit for bit (every arm, pool size and window shape),
// forced-scalar must be bit-identical run to run, and the AVX2 arm must
// agree with scalar within the end-to-end NCC bound.  On the AVX2 arm the
// scan settles most lanes with the f32 screen; the reference comparison
// covers windows built to sit where the screen must fall back.
#include "emap/core/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "emap/dsp/simd.hpp"
#include "emap/dsp/xcorr.hpp"
#include "support/kernel_diff.hpp"
#include "support/test_util.hpp"

namespace emap::core {
namespace {

using emap::testing::kdiff::ScopedSimdLevel;
using emap::testing::kdiff::ulp_distance;
using Level = dsp::simd::Level;

EmapConfig permissive_config() {
  EmapConfig config;
  config.delta = 0.2;  // plenty of candidates so result ordering matters
  return config;
}

mdb::MdbStore corpus_store() { return emap::testing::small_mdb(2); }

// A probe cut from offset 0 of a stored set: offset 0 is on every
// exponential-window probe grid (see test_search.cpp's PlantedFixture),
// so the scan is guaranteed to evaluate the planted alignment and the
// equivalence checks compare non-trivial result sets.
std::vector<double> corpus_probe(const mdb::MdbStore& store,
                                 std::size_t window = 256) {
  const auto& samples = store.at(store.size() > 1 ? 1 : 0).samples;
  return {samples.begin(),
          samples.begin() + static_cast<std::ptrdiff_t>(window)};
}

void expect_identical_results(const SearchResult& a, const SearchResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.matches.size(), b.matches.size()) << what;
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].store_index, b.matches[i].store_index)
        << what << " #" << i;
    EXPECT_EQ(a.matches[i].set_id, b.matches[i].set_id) << what << " #" << i;
    EXPECT_EQ(a.matches[i].beta, b.matches[i].beta) << what << " #" << i;
    EXPECT_EQ(ulp_distance(a.matches[i].omega, b.matches[i].omega), 0u)
        << what << " #" << i << ": " << a.matches[i].omega << " vs "
        << b.matches[i].omega;
  }
  EXPECT_EQ(a.stats.correlation_evals, b.stats.correlation_evals) << what;
  EXPECT_EQ(a.stats.offsets_total, b.stats.offsets_total) << what;
  EXPECT_EQ(a.stats.candidates, b.stats.candidates) << what;
}

// Algorithm 1 written the plain way: one set at a time, one
// NormalizedWindow::correlate per evaluated offset.
SearchResult per_offset_reference(const EmapConfig& config,
                                  std::span<const double> probe,
                                  const mdb::MdbStore& store) {
  const CrossCorrelationSearch skips(config);
  const dsp::NormalizedWindow normalized(probe);
  const std::size_t window = config.window_length;
  std::vector<SearchMatch> candidates;
  SearchResult result;
  for (std::size_t index = 0; index < store.size(); ++index) {
    const auto& set = store.at(index);
    if (set.samples.size() < window) {
      continue;
    }
    const std::vector<double> samples(set.samples.begin(), set.samples.end());
    const std::size_t limit = set.samples.size() - window;
    result.stats.offsets_total += limit;
    std::size_t beta = 0;
    while (beta < limit) {
      const double omega = normalized.correlate(
          std::span<const double>(samples).subspan(beta, window));
      ++result.stats.correlation_evals;
      if (omega > config.delta) {
        candidates.push_back(SearchMatch{index, set.id, omega, beta,
                                         set.anomalous, set.class_tag});
      }
      beta += skips.skip_for_omega(omega);
    }
  }
  result.stats.candidates = candidates.size();
  result.matches = select_top_k(std::move(candidates), config.top_k);
  return result;
}

// `count` noise sets of `slice` samples; set #1 carries the probe region
// at offset 0 (scaled and shifted) and set #2 is flat, so planted hits,
// noise and degenerate candidates share the lanes.
mdb::MdbStore mixed_store(std::size_t count, std::uint32_t slice) {
  mdb::MdbStore store(mdb::StoreInfo{256.0, slice});
  const auto shape = emap::testing::sine(11.0, 256.0, slice, 3.0);
  for (std::size_t i = 0; i < count; ++i) {
    mdb::SignalSet set;
    set.samples =
        emap::testing::to_f32(emap::testing::noise(700 + i, slice, 4.0));
    set.anomalous = (i % 3 == 0);
    set.class_tag = static_cast<std::uint8_t>(i % 4);
    if (i == 1) {
      for (std::size_t k = 0; k < slice; ++k) {
        set.samples[k] = 0.9 * shape[k] + 2.0 + 0.05 * set.samples[k];
      }
    } else if (i == 2) {
      set.samples.assign(slice, 1.5);
    }
    store.insert(std::move(set));
  }
  return store;
}

// ω values within 1e-7..1e-5 of δ and of four skip steps (located by
// bisection on skip_for_omega), on both sides.
std::vector<double> near_threshold_omegas(const EmapConfig& config) {
  const CrossCorrelationSearch search(config);
  std::vector<double> anchors = {config.delta};
  for (const double from : {0.1, 0.4, 0.7, 0.9}) {
    double lo = from;
    double hi = from;
    while (search.skip_for_omega(hi) == search.skip_for_omega(lo)) {
      hi += 1.0 / 1024;
    }
    while (hi - lo > 1e-15) {
      const double mid = lo + (hi - lo) / 2;
      (search.skip_for_omega(mid) == search.skip_for_omega(lo) ? lo : hi) =
          mid;
    }
    anchors.push_back(hi);
  }
  std::vector<double> omegas;
  for (const double anchor : anchors) {
    for (const double distance : {1e-7, 3e-7, 1e-6, 3e-6, 1e-5}) {
      omegas.push_back(anchor - distance);
      omegas.push_back(anchor + distance);
    }
  }
  return omegas;
}

// Set #1 holds the probe at offset 0 (where corpus_probe cuts it); every
// other set starts with a window whose ω against that probe is one of
// near_threshold_omegas, up to the f32 rounding of its samples (a few
// 1e-8), followed by noise.  The screen's enclosure of most of those
// windows straddles δ or a skip step, so their lanes fall back to the
// exact kernel.
mdb::MdbStore near_threshold_store(const EmapConfig& config,
                                   std::uint32_t slice) {
  const std::size_t window = config.window_length;
  mdb::MdbStore store(mdb::StoreInfo{256.0, slice});
  const std::vector<float> probe_f32 =
      emap::testing::to_f32(emap::testing::noise(4242, window, 3.0));
  const dsp::NormalizedWindow probe(
      std::vector<double>(probe_f32.begin(), probe_f32.end()));
  // A zero-mean unit vector orthogonal to the normalized probe.
  std::vector<double> other = emap::testing::noise(4343, window);
  double mean = 0.0;
  double along = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    mean += other[i] / static_cast<double>(window);
    along += other[i] * probe.samples()[i];
  }
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    other[i] -= mean + along * probe.samples()[i];
    norm_sq += other[i] * other[i];
  }
  for (double& v : other) {
    v /= std::sqrt(norm_sq);
  }
  const auto omegas = near_threshold_omegas(config);
  const double scale = 3.0 * std::sqrt(static_cast<double>(window));
  for (std::size_t k = 0; k <= omegas.size(); ++k) {
    mdb::SignalSet set;
    set.samples = emap::testing::to_f32(
        emap::testing::noise(900 + k, slice, 3.0));
    set.anomalous = k % 2 == 0;
    if (k == 1) {
      std::copy(probe_f32.begin(), probe_f32.end(), set.samples.begin());
    } else {
      const double omega = omegas[k == 0 ? 0 : k - 1];
      const double rest = std::sqrt(1.0 - omega * omega);
      for (std::size_t i = 0; i < window; ++i) {
        set.samples[i] = static_cast<float>(
            2.0 + scale * (omega * probe.samples()[i] + rest * other[i]));
      }
    }
    store.insert(std::move(set));
  }
  return store;
}

TEST(SearchSimd, LockstepScanMatchesPerOffsetReference) {
  struct Case {
    std::string name;
    mdb::MdbStore store;
    EmapConfig config;
  };
  std::vector<Case> cases;
  // Set counts that are not multiples of the lane count, windows that are
  // not multiples of 8, sets equal to and shorter than the window.
  const struct {
    std::size_t sets;
    std::uint32_t slice;
    std::size_t window;
  } shapes[] = {
      {1, 1000, 256}, {3, 1000, 256}, {5, 700, 100}, {7, 400, 37},
      {13, 300, 13},  {6, 256, 256},  {5, 250, 256}, {9, 1000, 250},
  };
  for (const auto& shape : shapes) {
    EmapConfig config = permissive_config();
    config.window_length = shape.window;
    config.top_k = 40;  // below the candidate count: selection matters
    cases.push_back({"sets=" + std::to_string(shape.sets) +
                         " slice=" + std::to_string(shape.slice) +
                         " window=" + std::to_string(shape.window),
                     mixed_store(shape.sets, shape.slice), config});
  }
  cases.push_back({"corpus", corpus_store(), permissive_config()});
  cases.push_back({"near_threshold",
                   near_threshold_store(permissive_config(), 400),
                   permissive_config()});

  std::vector<Level> arms = {Level::kScalar};
  if (dsp::simd::compiled_with_avx2() && dsp::simd::cpu_supports_avx2()) {
    arms.push_back(Level::kAvx2);
  }
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (const std::size_t threads : {2, 3, 5}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  std::size_t non_trivial = 0;
  std::uint64_t near_threshold_exact = 0;  // AVX2 arm, non-degenerate probe
  std::uint64_t near_threshold_evals = 0;
  for (const Case& c : cases) {
    const std::size_t window = c.config.window_length;
    std::vector<std::vector<double>> probes;
    if (c.store.at(0).samples.size() >= window) {
      probes.push_back(corpus_probe(c.store, window));
    } else {
      probes.push_back(emap::testing::noise(99, window));
    }
    probes.emplace_back(window, -0.25);  // degenerate probe
    for (const Level arm : arms) {
      ScopedSimdLevel forced(arm);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        const SearchResult reference =
            per_offset_reference(c.config, probes[p], c.store);
        non_trivial += reference.matches.empty() ? 0 : 1;
        for (const auto& pool : pools) {
          const CrossCorrelationSearch search(c.config, pool.get());
          const std::string what =
              std::string(dsp::simd::level_name(arm)) + " " + c.name +
              " probe=" + std::to_string(p) +
              " threads=" + std::to_string(pool ? pool->size() : 1);
          const SearchResult got = search.search(probes[p], c.store);
          expect_identical_results(reference, got, what);
          if (arm == Level::kScalar && p == 0) {
            EXPECT_EQ(got.stats.exact_evals, got.stats.correlation_evals)
                << what << ": the scalar arm evaluates every lane exactly";
          }
          if (arm == Level::kAvx2 && p == 0 && c.name == "near_threshold") {
            near_threshold_exact += got.stats.exact_evals;
            near_threshold_evals += got.stats.correlation_evals;
          }
        }
      }
    }
  }
  EXPECT_GE(non_trivial, arms.size() * 6);
  if (arms.size() > 1) {
    // Some lanes fell back to the exact kernel, and the screen still
    // settled the rest.
    EXPECT_GT(near_threshold_exact, 0u);
    EXPECT_LT(near_threshold_exact, near_threshold_evals);
  }
}

TEST(SearchSimd, ForcedScalarSearchIsBitIdenticalAcrossRuns) {
  const auto store = corpus_store();
  const auto probe = corpus_probe(store);
  CrossCorrelationSearch search(permissive_config());
  ScopedSimdLevel forced(Level::kScalar);
  const auto first = search.search(probe, store);
  const auto second = search.search(probe, store);
  expect_identical_results(first, second, "scalar run-to-run");
}

// Scalar and AVX2 scans take the same skip decisions on this workload and
// agree on every reported omega within the end-to-end NCC bound.  (The
// skip sequence is quantized through llround, so the sub-ULP omega
// differences cannot change it except exactly at a quantization boundary —
// if this workload ever lands on one, the divergence shows up here first.)
TEST(SearchSimd, Avx2SearchMatchesScalarWithinNccBound) {
  if (!dsp::simd::compiled_with_avx2() || !dsp::simd::cpu_supports_avx2()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto store = corpus_store();
  const auto probe = corpus_probe(store);
  CrossCorrelationSearch search(permissive_config());

  SearchResult scalar;
  {
    ScopedSimdLevel forced(Level::kScalar);
    scalar = search.search(probe, store);
  }
  SearchResult avx2;
  {
    ScopedSimdLevel forced(Level::kAvx2);
    avx2 = search.search(probe, store);
  }
  ASSERT_FALSE(scalar.matches.empty());
  ASSERT_EQ(scalar.matches.size(), avx2.matches.size());
  EXPECT_EQ(scalar.stats.correlation_evals, avx2.stats.correlation_evals);
  for (std::size_t i = 0; i < scalar.matches.size(); ++i) {
    EXPECT_EQ(scalar.matches[i].set_id, avx2.matches[i].set_id) << i;
    EXPECT_EQ(scalar.matches[i].beta, avx2.matches[i].beta) << i;
    const bool close =
        ulp_distance(scalar.matches[i].omega, avx2.matches[i].omega) <=
            4096 ||
        std::abs(scalar.matches[i].omega - avx2.matches[i].omega) <= 1e-9;
    EXPECT_TRUE(close) << "match " << i << ": scalar omega "
                       << scalar.matches[i].omega << " vs avx2 "
                       << avx2.matches[i].omega;
  }
}

}  // namespace
}  // namespace emap::core
