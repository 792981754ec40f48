// Differential kernel-equivalence tests: every (kernel, implementation)
// pair driven through tests/support/kernel_diff.hpp over 10k seeded
// random cases plus edge shapes, IEEE adversarial inputs, and corpus
// windows.  The pinned ULP bound here is the contract docs/performance.md
// publishes; tightening or loosening it is an API change.  The AVX2 arm's
// f32 screen has no scalar twin and is held to its error bound instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "emap/dsp/area.hpp"
#include "emap/dsp/kernels.hpp"
#include "emap/dsp/simd.hpp"
#include "emap/dsp/xcorr.hpp"
#include "support/kernel_diff.hpp"

namespace emap::testing {
namespace {

namespace kernels = dsp::kernels;
using dsp::simd::Level;

// Pinned divergence contract between the scalar and AVX2 arms for one raw
// reduction (see docs/performance.md "SIMD dispatch and ULP equivalence").
constexpr std::uint64_t kPinnedUlpBound = 256;
// NCC composes several reductions plus a sqrt and a divide; its end-to-end
// bound is wider, with a flat absolute floor (results live in [-1, 1]).
constexpr std::uint64_t kNccUlpBound = 4096;
constexpr double kNccAbsTol = 1e-9;
constexpr std::size_t kRandomCasesPerKernel = 10000;

bool avx2_arm_available() {
  return dsp::simd::compiled_with_avx2() && dsp::simd::cpu_supports_avx2();
}

// Full input sweep for one kernel: 10k random + edge shapes + adversarial
// + corpus windows.  Corpus cases are cached — the synthetic MDB build is
// the expensive part and the windows are reusable across kernels.
std::vector<kdiff::Case> full_suite(std::uint64_t seed) {
  auto cases = kdiff::random_cases(seed, kRandomCasesPerKernel, 0, 512);
  kdiff::append_cases(cases, kdiff::edge_shape_cases());
  kdiff::append_cases(cases, kdiff::adversarial_cases(seed ^ 0xADD5EEDULL));
  static const std::vector<kdiff::Case> corpus =
      kdiff::corpus_cases(/*count=*/64, /*window_len=*/256);
  kdiff::append_cases(cases, corpus);
  return cases;
}

double a_magnitude(const kdiff::Case& c) {
  double sum = 0.0;
  for (double v : c.a) {
    sum += std::abs(v);
  }
  return std::isfinite(sum) ? sum : std::numeric_limits<double>::max();
}

TEST(KernelDiff, SumScalarVsAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto cases = full_suite(0x501);
  const auto report = kdiff::run_diff(
      cases,
      [](const kdiff::Case& c) {
        return kernels::sum_scalar(c.a.data(), c.size());
      },
      [](const kdiff::Case& c) {
        return kernels::sum_avx2(c.a.data(), c.size());
      },
      kdiff::make_reduction_acceptor(kPinnedUlpBound, &a_magnitude));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KernelDiff, DotScalarVsAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto cases = full_suite(0xD07);
  const auto report = kdiff::run_diff(
      cases,
      [](const kdiff::Case& c) {
        return kernels::dot_scalar(c.a.data(), c.b.data(), c.size());
      },
      [](const kdiff::Case& c) {
        return kernels::dot_avx2(c.a.data(), c.b.data(), c.size());
      },
      kdiff::make_reduction_acceptor(
          kPinnedUlpBound,
          [](const kdiff::Case& c) { return c.product_magnitude(); }));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KernelDiff, CenteredDotNormScalarVsAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto cases = full_suite(0xCD0);
  // Both arms receive the same (scalar-computed) mean, mirroring production:
  // the divergence under test is the centered reduction itself.
  const auto mean_of_b = [](const kdiff::Case& c) {
    return c.size() == 0 ? 0.0
                         : kernels::sum_scalar(c.b.data(), c.size()) /
                               static_cast<double>(c.size());
  };
  const auto centered_magnitude = [&](const kdiff::Case& c, bool dot_part) {
    const double mean = mean_of_b(c);
    double sum = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double centered = c.b[i] - mean;
      sum += dot_part ? std::abs(c.a[i] * centered) : centered * centered;
    }
    return std::isfinite(sum) ? sum : std::numeric_limits<double>::max();
  };
  const auto dot_report = kdiff::run_diff(
      cases,
      [&](const kdiff::Case& c) {
        return kernels::centered_dot_norm_scalar(c.a.data(), c.b.data(),
                                                 c.size(), mean_of_b(c))
            .dot;
      },
      [&](const kdiff::Case& c) {
        return kernels::centered_dot_norm_avx2(c.a.data(), c.b.data(),
                                               c.size(), mean_of_b(c))
            .dot;
      },
      kdiff::make_reduction_acceptor(kPinnedUlpBound, [&](const auto& c) {
        return centered_magnitude(c, /*dot_part=*/true);
      }));
  EXPECT_TRUE(dot_report.ok()) << "dot: " << dot_report.summary();
  const auto norm_report = kdiff::run_diff(
      cases,
      [&](const kdiff::Case& c) {
        return kernels::centered_dot_norm_scalar(c.a.data(), c.b.data(),
                                                 c.size(), mean_of_b(c))
            .norm_sq;
      },
      [&](const kdiff::Case& c) {
        return kernels::centered_dot_norm_avx2(c.a.data(), c.b.data(),
                                               c.size(), mean_of_b(c))
            .norm_sq;
      },
      kdiff::make_reduction_acceptor(kPinnedUlpBound, [&](const auto& c) {
        return centered_magnitude(c, /*dot_part=*/false);
      }));
  EXPECT_TRUE(norm_report.ok()) << "norm_sq: " << norm_report.summary();
}

TEST(KernelDiff, AbsSumScalarVsAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto cases = full_suite(0xA55);
  const auto report = kdiff::run_diff(
      cases,
      [](const kdiff::Case& c) {
        return kernels::abs_sum_scalar(c.a.data(), c.b.data(), c.size());
      },
      [](const kdiff::Case& c) {
        return kernels::abs_sum_avx2(c.a.data(), c.b.data(), c.size());
      },
      kdiff::make_reduction_acceptor(
          kPinnedUlpBound,
          [](const kdiff::Case& c) { return c.difference_magnitude(); }));
  EXPECT_TRUE(report.ok()) << report.summary();
}

// The capped kernel's contract is weaker than value equality: when the
// true area is <= threshold both arms return the full (reduction-
// equivalent) sum; once it exceeds the threshold each arm may exit at a
// different point and only "both > threshold" is promised.  A straddle is
// legal only within the reduction tolerance of the threshold itself.
TEST(KernelDiff, AbsSumCappedScalarVsAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto cases = full_suite(0xCA9);
  const auto threshold_for = [](const kdiff::Case& c) {
    // Half the true area: roughly half the cases exit early, half run to
    // completion, and the threshold scales with the case's magnitudes.
    return 0.5 * kernels::abs_sum_scalar(c.a.data(), c.b.data(), c.size());
  };
  const auto capped_acceptor = [&](const kdiff::Case& c, double ref,
                                   double got) {
    const double threshold = threshold_for(c);
    if (std::isnan(ref) || std::isnan(got)) {
      return std::isnan(ref) && std::isnan(got);
    }
    const double tol =
        kdiff::reduction_tolerance(c.difference_magnitude(), c.size());
    const bool ref_over = ref > threshold;
    const bool got_over = got > threshold;
    if (ref_over && got_over) {
      return true;
    }
    if (!ref_over && !got_over) {
      return kdiff::ulp_distance(ref, got) <= kPinnedUlpBound ||
             std::abs(ref - got) <= tol;
    }
    return std::abs(std::min(ref, got) - threshold) <= tol;
  };
  const auto report = kdiff::run_diff(
      cases,
      [&](const kdiff::Case& c) {
        return kernels::abs_sum_capped_scalar(c.a.data(), c.b.data(),
                                              c.size(), threshold_for(c),
                                              nullptr);
      },
      [&](const kdiff::Case& c) {
        return kernels::abs_sum_capped_avx2(c.a.data(), c.b.data(), c.size(),
                                            threshold_for(c), nullptr);
      },
      capped_acceptor);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// With an unreachable threshold neither arm may exit early: both consume
// exactly n samples and return the full abs-sum.
TEST(KernelDiff, AbsSumCappedConsumesAllWithoutEarlyExit) {
  const auto cases = kdiff::random_cases(0xFEED, 200, 0, 130);
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& c : cases) {
    std::size_t consumed = 0;
    const double scalar = kernels::abs_sum_capped_scalar(
        c.a.data(), c.b.data(), c.size(), inf, &consumed);
    EXPECT_EQ(consumed, c.size()) << c.tag;
    EXPECT_EQ(scalar, kernels::abs_sum_scalar(c.a.data(), c.b.data(),
                                              c.size()))
        << c.tag;
#ifdef EMAP_HAVE_AVX2
    if (dsp::simd::cpu_supports_avx2()) {
      consumed = 0;
      const double vec = kernels::abs_sum_capped_avx2(
          c.a.data(), c.b.data(), c.size(), inf, &consumed);
      EXPECT_EQ(consumed, c.size()) << c.tag;
      // Capped and uncapped AVX2 use different accumulator structures
      // (per-block cap check vs unrolled pairs), so "the full sum" is only
      // reduction-equivalent, not bit-equal.
      const double plain =
          kernels::abs_sum_avx2(c.a.data(), c.b.data(), c.size());
      EXPECT_TRUE(kdiff::ulp_distance(vec, plain) <= kPinnedUlpBound ||
                  std::abs(vec - plain) <= kdiff::reduction_tolerance(
                                               c.difference_magnitude(),
                                               c.size()))
          << c.tag << ": capped=" << vec << " plain=" << plain;
    }
#endif
  }
}

// End-to-end NCC through the public API, one dispatch arm per run.
TEST(KernelDiff, NormalizedCorrelationPublicApiScalarVsAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  auto cases = full_suite(0x4CC0);
  std::erase_if(cases, [](const kdiff::Case& c) { return c.size() == 0; });
  const auto ncc_with = [](Level level, const kdiff::Case& c) {
    kdiff::ScopedSimdLevel forced(level);
    return dsp::normalized_correlation(c.a, c.b);
  };
  const auto report = kdiff::run_diff(
      cases,
      [&](const kdiff::Case& c) { return ncc_with(Level::kScalar, c); },
      [&](const kdiff::Case& c) { return ncc_with(Level::kAvx2, c); },
      kdiff::make_reduction_acceptor(
          kNccUlpBound, [](const kdiff::Case&) { return 0.0; }, kNccAbsTol));
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Sliding kernels, element-wise across arms.
TEST(KernelDiff, SlidingNccAndAreaScalarVsAvx2) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto probe = noise(0x9A0BE, 128);
  const auto haystack = noise(0x8A15, 1500);
  kdiff::Case shared;
  shared.tag = "sliding[probe=128,haystack=1500]";
  shared.a = probe;
  shared.b = haystack;
  const std::vector<kdiff::Case> cases = {shared};
  const auto accept = kdiff::make_reduction_acceptor(
      kNccUlpBound, [](const kdiff::Case&) { return 0.0; }, kNccAbsTol);
  const auto ncc_report = kdiff::run_diff_sequences(
      cases,
      [&](const kdiff::Case& c) {
        kdiff::ScopedSimdLevel forced(Level::kScalar);
        return dsp::sliding_ncc(c.a, c.b);
      },
      [&](const kdiff::Case& c) {
        kdiff::ScopedSimdLevel forced(Level::kAvx2);
        return dsp::sliding_ncc(c.a, c.b);
      },
      accept);
  EXPECT_TRUE(ncc_report.ok()) << "sliding_ncc: " << ncc_report.summary();
  const auto area_accept = kdiff::make_reduction_acceptor(
      kPinnedUlpBound,
      [](const kdiff::Case& c) {
        return static_cast<double>(c.a.size()) * 16.0;  // |diff| <= ~16 sigma
      });
  const auto area_report = kdiff::run_diff_sequences(
      cases,
      [&](const kdiff::Case& c) {
        kdiff::ScopedSimdLevel forced(Level::kScalar);
        return dsp::sliding_area(c.a, c.b);
      },
      [&](const kdiff::Case& c) {
        kdiff::ScopedSimdLevel forced(Level::kAvx2);
        return dsp::sliding_area(c.a, c.b);
      },
      area_accept);
  EXPECT_TRUE(area_report.ok()) << "sliding_area: " << area_report.summary();
}

// --- lockstep NCC: every lane's ncc_x1 equals that arm's f64 pass ------

// The four f32 candidates of one lockstep step built from a case: the
// case's `b`, a flat (degenerate) window, `b` with a NaN planted
// mid-window, and the probe `a` itself, each rounded to f32 as the MDB
// stores them, so normal, degenerate and NaN lanes share a step
// (adversarial cases add ±Inf/NaN/huge/denormal lanes on top, and values
// beyond f32 range round to ±Inf).
std::vector<std::vector<float>> lockstep_lanes(const kdiff::Case& c) {
  std::vector<float> nan_lane(c.b.begin(), c.b.end());
  if (!nan_lane.empty()) {
    nan_lane[nan_lane.size() / 2] = std::numeric_limits<float>::quiet_NaN();
  }
  return {{c.b.begin(), c.b.end()},
          std::vector<float>(c.size(), 3.25f),
          std::move(nan_lane),
          {c.a.begin(), c.a.end()}};
}

// Two results agree when both are NaN, or when they have the same bits
// (memcmp, so signed zeros count).  NaNs compare as a class: when two NaNs
// meet in an add, x86 keeps the first operand's, and the compiler may order
// a commutative add either way, so a NaN's sign and payload are not part of
// any kernel's contract.
bool same_result(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) ||
         std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Runs `table.ncc_x1` on each f32 lane against `table.sum` +
// `table.centered_dot_norm` on the lane widened to f64, demanding
// same_result for both outputs.
void expect_lockstep_matches_single(const kernels::KernelTable& table) {
  static_assert(kernels::kNccLanes == 4);
  const auto cases = full_suite(0x4C4E5);
  std::size_t mismatches = 0;
  for (const kdiff::Case& c : cases) {
    const auto lanes = lockstep_lanes(c);
    for (std::size_t lane = 0; lane < kernels::kNccLanes; ++lane) {
      const kernels::DotNormSq lockstep =
          table.ncc_x1(c.a.data(), lanes[lane].data(), c.size());
      const std::vector<double> widened(lanes[lane].begin(),
                                        lanes[lane].end());
      const double mean = table.sum(widened.data(), c.size()) /
                          static_cast<double>(c.size());
      const kernels::DotNormSq single = table.centered_dot_norm(
          c.a.data(), widened.data(), c.size(), mean);
      if (!same_result(single.dot, lockstep.dot) ||
          !same_result(single.norm_sq, lockstep.norm_sq)) {
        if (mismatches++ < 5) {
          ADD_FAILURE() << c.tag << " lane " << lane << ": single ("
                        << single.dot << ", " << single.norm_sq
                        << ") vs lockstep (" << lockstep.dot << ", "
                        << lockstep.norm_sq << ")";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases.size() * kernels::kNccLanes
                            << " lanes";
}

TEST(KernelDiff, LockstepNccScalarLanesMatchSinglePass) {
  expect_lockstep_matches_single(kernels::table(Level::kScalar));
}

TEST(KernelDiff, LockstepNccAvx2LanesMatchSinglePass) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  expect_lockstep_matches_single(kernels::table(Level::kAvx2));
}

// --- f32 screen: both arms' exact ω lies in the screen's ω̃ ± E ----------

// Candidates built for the screen's weak spots, against random probes:
// a DC offset far above the spread (the f32 mean cancels), near-constant
// windows, f32 subnormals, 1e30 (f32 squares overflow) and NaN/±Inf.
// `b` mixes the probe's own shape into noise, so ω spans (-1, 1).
std::vector<kdiff::Case> screen_cases(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<kdiff::Case> cases;
  const auto add = [&](const std::string& kind, std::size_t len,
                       double offset, double spread, double shape) {
    kdiff::Case c;
    c.tag = "screen[kind=" + kind + ",len=" + std::to_string(len) +
            ",offset=" + std::to_string(offset) +
            ",spread=" + std::to_string(spread) + "]";
    c.a.resize(len);
    c.b.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      c.a[i] = rng.normal(0.0, 1.0);
      c.b[i] = offset + spread * (shape * c.a[i] +
                                  (1.0 - shape) * rng.normal(0.0, 1.0));
    }
    cases.push_back(std::move(c));
  };
  for (const std::size_t len : {7, 64, 256, 257}) {
    for (const double offset : {1e1, 1e3, 1e4, 1e5, 1e7, -1e6}) {
      for (const double shape : {0.0, 0.5, 0.95}) {
        add("dc_offset", len, offset, 1.0, shape);
      }
    }
    add("near_constant", len, 3.25, 1e-7, 0.5);
    add("near_constant", len, -1e4, 1e-3, 0.9);
    add("denormal", len, 0.0, 1e-40, 0.5);
    add("huge", len, 0.0, 1e30, 0.5);
    for (const double special :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()}) {
      for (const std::size_t pos : {std::size_t{0}, len / 2, len - 1}) {
        add("non_finite", len, 0.0, 1.0, 0.5);
        cases.back().b[pos] = special;
      }
    }
  }
  return cases;
}

bool all_finite(const std::vector<float>& samples) {
  return std::all_of(samples.begin(), samples.end(),
                     [](float v) { return std::isfinite(v); });
}

TEST(KernelDiff, ScreenEnclosesExactOmegaOfBothArms) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  auto cases = full_suite(0x5C4EE);
  kdiff::append_cases(cases, screen_cases(0x5C4EF));
  std::erase_if(cases, [](const kdiff::Case& c) { return c.size() == 0; });
  const kernels::KernelTable* arms[] = {&kernels::table(Level::kScalar),
                                        &kernels::table(Level::kAvx2)};
  std::size_t enclosed = 0;
  std::size_t fell_back = 0;  ///< of the lanes that may be screened
  std::size_t failures = 0;
  for (const kdiff::Case& c : cases) {
    const dsp::NormalizedWindow probe(c.a);
    if (probe.degenerate()) {
      continue;  // the scan screens no degenerate probe
    }
    const kernels::ScreenProbe screen(probe.samples());
    const auto lanes = lockstep_lanes(c);
    const float* cand[kernels::kNccLanes];
    for (std::size_t l = 0; l < kernels::kNccLanes; ++l) {
      cand[l] = lanes[l].data();
    }
    kernels::OmegaRange ranges[kernels::kNccLanes];
    kernels::table(Level::kAvx2).screen_x4(screen, cand, c.size(), ranges);
    const bool screenable_kind = c.tag.find("kind=denormal") ==
                                     std::string::npos &&
                                 c.tag.find("kind=huge") == std::string::npos;
    const bool finite_probe =
        std::all_of(probe.samples().begin(), probe.samples().end(),
                    [](double v) { return std::isfinite(v); });
    for (std::size_t l = 0; l < kernels::kNccLanes; ++l) {
      // Lanes that must fall back: non-finite samples (the last group and
      // the NaN-planted lane), the flat lane, f32 subnormals and squares
      // beyond f32 range, and every lane of a non-finite probe.
      const bool must_fall_back = !all_finite(lanes[l]) || l == 1 ||
                                  (l == 0 && !screenable_kind) ||
                                  !finite_probe;
      const kernels::OmegaRange& range = ranges[l];
      if (std::isnan(range.lo) || std::isnan(range.hi)) {
        fell_back += must_fall_back ? 0 : 1;
        continue;
      }
      ++enclosed;
      if (must_fall_back) {
        if (failures++ < 5) {
          ADD_FAILURE() << c.tag << " lane " << l
                        << " was screened; it must fall back";
        }
        continue;
      }
      for (const kernels::KernelTable* arm : arms) {
        const kernels::DotNormSq exact =
            arm->ncc_x1(probe.samples().data(), cand[l], c.size());
        const double omega = dsp::ncc_from_centered(exact.dot, exact.norm_sq);
        if (!(range.lo <= omega && omega <= range.hi) && failures++ < 5) {
          ADD_FAILURE() << c.tag << " lane " << l << " "
                        << dsp::simd::level_name(arm->level) << ": omega "
                        << std::hexfloat << omega << " outside ["
                        << range.lo << ", " << range.hi << "]";
        }
      }
    }
  }
  EXPECT_EQ(failures, 0u);
  // The bound is not vacuous: most lanes that may be screened are.
  EXPECT_GT(enclosed, 9 * fell_back) << enclosed << " enclosed, "
                                     << fell_back << " fell back";
}

// On the windows the scan sees (the corpus), the screen settles almost
// every step only because E is a few 1e-6 wide: pin that.
TEST(KernelDiff, ScreenBoundIsTightOnCorpusWindows) {
  if (!avx2_arm_available()) {
    GTEST_SKIP() << "AVX2 arm not available on this build/host";
  }
  const auto cases = kdiff::corpus_cases(/*count=*/64, /*window_len=*/256);
  ASSERT_FALSE(cases.empty());
  for (const kdiff::Case& c : cases) {
    const dsp::NormalizedWindow probe(c.a);
    ASSERT_FALSE(probe.degenerate()) << c.tag;
    const kernels::ScreenProbe screen(probe.samples());
    const std::vector<float> cand_b(c.b.begin(), c.b.end());
    const float* cand[kernels::kNccLanes] = {cand_b.data(), cand_b.data(),
                                             cand_b.data(), cand_b.data()};
    kernels::OmegaRange ranges[kernels::kNccLanes];
    kernels::table(Level::kAvx2).screen_x4(screen, cand, c.size(), ranges);
    const kernels::OmegaRange& range = ranges[0];
    ASSERT_FALSE(std::isnan(range.lo)) << c.tag;
    EXPECT_LT(range.hi - range.lo, 2e-5) << c.tag;
  }
}

// --- forced-scalar bit-identity against the pre-SIMD implementations ----

// Verbatim replicas of the original (pre-dispatch) loops.  If the scalar
// arm ever stops being bit-identical to these, EMAP_SIMD=off no longer
// reproduces pre-SIMD results and every deterministic baseline breaks.
double legacy_ncc(const std::vector<double>& a, const std::vector<double>& b) {
  constexpr double kDegenerateNorm = 1e-12;
  const std::size_t n = a.size();
  std::vector<double> na(a);
  double mean = 0.0;
  for (double v : na) {
    mean += v;
  }
  mean /= static_cast<double>(n);
  double norm_sq = 0.0;
  for (double& v : na) {
    v -= mean;
    norm_sq += v * v;
  }
  const double norm = std::sqrt(norm_sq);
  if (norm < kDegenerateNorm) {
    double mean_b = 0.0;
    for (double v : b) {
      mean_b += v;
    }
    mean_b /= static_cast<double>(n);
    double norm_sq_b = 0.0;
    for (double v : b) {
      const double centered = v - mean_b;
      norm_sq_b += centered * centered;
    }
    return std::sqrt(norm_sq_b) < kDegenerateNorm ? 1.0 : 0.0;
  }
  for (double& v : na) {
    v /= norm;
  }
  double mean_b = 0.0;
  for (double v : b) {
    mean_b += v;
  }
  mean_b /= static_cast<double>(n);
  double dot = 0.0;
  double cand_norm_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double centered = b[i] - mean_b;
    dot += na[i] * centered;
    cand_norm_sq += centered * centered;
  }
  const double cand_norm = std::sqrt(cand_norm_sq);
  if (cand_norm < kDegenerateNorm) {
    return 0.0;
  }
  return std::clamp(dot / cand_norm, -1.0, 1.0);
}

double legacy_area_capped(const std::vector<double>& a,
                          const std::vector<double>& b, double threshold,
                          std::size_t& ops) {
  double acc = 0.0;
  std::size_t i = 0;
  while (i < a.size()) {
    acc += std::abs(a[i] - b[i]);
    ++i;
    if (acc > threshold) {
      break;
    }
  }
  ops += i;
  return acc;
}

TEST(KernelDiff, ForcedScalarIsBitIdenticalToLegacyNcc) {
  auto cases = full_suite(0xB17);
  std::erase_if(cases, [](const kdiff::Case& c) { return c.size() == 0; });
  const auto report = kdiff::run_diff(
      cases,
      [](const kdiff::Case& c) { return legacy_ncc(c.a, c.b); },
      [](const kdiff::Case& c) {
        kdiff::ScopedSimdLevel forced(Level::kScalar);
        return dsp::normalized_correlation(c.a, c.b);
      },
      kdiff::ExactAcceptor{});
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(KernelDiff, ForcedScalarIsBitIdenticalToLegacyCappedArea) {
  auto cases = full_suite(0xB18);
  std::erase_if(cases, [](const kdiff::Case& c) { return c.size() == 0; });
  kdiff::ScopedSimdLevel forced(Level::kScalar);
  for (const auto& c : cases) {
    const double threshold =
        0.5 * kernels::abs_sum_scalar(c.a.data(), c.b.data(), c.size());
    std::size_t legacy_ops = 0;
    std::size_t ops = 0;
    const double want = legacy_area_capped(c.a, c.b, threshold, legacy_ops);
    const double got =
        dsp::area_between_capped_counted(c.a, c.b, threshold, ops);
    ASSERT_EQ(kdiff::ulp_distance(want, got), 0u) << c.tag;
    ASSERT_EQ(legacy_ops, ops) << c.tag;
  }
}

// --- harness self-tests -------------------------------------------------

TEST(KernelDiffHarness, UlpDistanceBasics) {
  const double one = 1.0;
  EXPECT_EQ(kdiff::ulp_distance(one, one), 0u);
  EXPECT_EQ(kdiff::ulp_distance(0.0, -0.0), 0u);
  EXPECT_EQ(kdiff::ulp_distance(
                one, std::nextafter(one, std::numeric_limits<double>::max())),
            1u);
  EXPECT_EQ(kdiff::ulp_distance(1e-320, -1e-320) > 0, true);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(kdiff::ulp_distance(nan, nan), 0u);
  EXPECT_EQ(kdiff::ulp_distance(nan, 1.0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(kdiff::ulp_distance(inf, inf), 0u);
  EXPECT_EQ(kdiff::ulp_distance(inf, -inf),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(kdiff::ulp_distance(inf, 1.0),
            std::numeric_limits<std::uint64_t>::max());
  // Distance across the sign boundary is symmetric and monotone.
  EXPECT_EQ(kdiff::ulp_distance(-1.0, 1.0), kdiff::ulp_distance(1.0, -1.0));
  EXPECT_GT(kdiff::ulp_distance(-1.0, 1.0), kdiff::ulp_distance(0.5, 1.0));
}

TEST(KernelDiffHarness, GeneratorsAreSeededAndShaped) {
  const auto a = kdiff::random_cases(42, 50, 0, 64);
  const auto b = kdiff::random_cases(42, 50, 0, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
  }
  const auto c = kdiff::random_cases(43, 50, 0, 64);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_difference = any_difference || a[i].a != c[i].a;
  }
  EXPECT_TRUE(any_difference) << "different seeds must differ";

  bool has_non_multiple_of_8 = false;
  for (const auto& kase : a) {
    has_non_multiple_of_8 =
        has_non_multiple_of_8 || (kase.size() % 8 != 0 && kase.size() > 0);
  }
  EXPECT_TRUE(has_non_multiple_of_8);

  bool has_len0 = false;
  bool has_len1 = false;
  bool has_denormal = false;
  for (const auto& kase : kdiff::edge_shape_cases()) {
    has_len0 = has_len0 || kase.size() == 0;
    has_len1 = has_len1 || kase.size() == 1;
    for (double v : kase.a) {
      has_denormal = has_denormal ||
                     (v != 0.0 && std::abs(v) <
                                      std::numeric_limits<double>::min());
    }
  }
  EXPECT_TRUE(has_len0);
  EXPECT_TRUE(has_len1);
  EXPECT_TRUE(has_denormal);

  bool has_nan = false;
  bool has_inf = false;
  for (const auto& kase : kdiff::adversarial_cases(7)) {
    for (double v : kase.a) {
      has_nan = has_nan || std::isnan(v);
      has_inf = has_inf || std::isinf(v);
    }
  }
  EXPECT_TRUE(has_nan);
  EXPECT_TRUE(has_inf);
}

TEST(KernelDiffHarness, ReportsFailuresWithTags) {
  std::vector<kdiff::Case> cases;
  kdiff::Case c;
  c.tag = "bad-case";
  c.a = {1.0};
  c.b = {1.0};
  cases.push_back(c);
  const auto report = kdiff::run_diff(
      cases, [](const kdiff::Case&) { return 1.0; },
      [](const kdiff::Case&) { return 2.0; }, kdiff::ExactAcceptor{});
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].tag, "bad-case");
  EXPECT_NE(report.summary().find("bad-case"), std::string::npos);
}

}  // namespace
}  // namespace emap::testing
