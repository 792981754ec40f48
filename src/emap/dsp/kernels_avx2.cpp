// AVX2+FMA arm of the DSP hot-path kernels.
//
// This translation unit is the only one compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); nothing here may be called before a
// simd::cpu_supports_avx2() check upstream, and nothing here is inlined
// across TU boundaries (no LTO), so the baseline binary stays runnable on
// non-AVX2 hosts.
//
// Numerics: every reduction uses 4-lane (or 2x4-lane) partial sums folded
// at the end, and the multiply-add kernels use FMA — both change the
// rounding sequence relative to the scalar arm's strict left-to-right
// loops.  The divergence is pinned by the kernel-equivalence harness
// (tests/support/kernel_diff.hpp) to a small ULP bound; keep any change
// here inside that bound or update the pinned bound in the same PR.
//
// Tails (n not a multiple of the lane width) finish scalar, accumulating
// onto the folded vector total.
#include <immintrin.h>

#include <cmath>

#include "emap/dsp/kernels.hpp"

namespace emap::dsp::kernels {
namespace {

/// Horizontal sum of one 4-lane accumulator.
inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

/// Four samples as f64: a plain load, or an f32 load widened by cvtps2pd
/// (exact), so the f32 candidates of ncc_x4 feed the same f64 arithmetic.
inline __m256d load4(const double* p) { return _mm256_loadu_pd(p); }
inline __m256d load4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

// The lockstep helpers below are force-inlined so their per-lane
// accumulator arrays live in registers rather than on the stack.  T is
// the candidate sample type (double, or the MDB's resident float).

/// sum_avx2 over L arrays in lockstep: lane l is exactly sum_avx2(x[l], n)
/// (same 2x4-lane accumulators, fold and scalar tail), with the lanes'
/// independent add chains interleaved.
template <std::size_t L, typename T>
[[gnu::always_inline]] inline void sum_lanes(const T* const* x,
                                             std::size_t n, double* total) {
  __m256d acc0[L];
  __m256d acc1[L];
  for (std::size_t l = 0; l < L; ++l) {
    acc0[l] = _mm256_setzero_pd();
    acc1[l] = _mm256_setzero_pd();
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < L; ++l) {
      acc0[l] = _mm256_add_pd(acc0[l], load4(x[l] + i));
      acc1[l] = _mm256_add_pd(acc1[l], load4(x[l] + i + 4));
    }
  }
  if (i + 4 <= n) {
    for (std::size_t l = 0; l < L; ++l) {
      acc0[l] = _mm256_add_pd(acc0[l], load4(x[l] + i));
    }
    i += 4;
  }
  for (std::size_t l = 0; l < L; ++l) {
    total[l] = hsum(_mm256_add_pd(acc0[l], acc1[l]));
    for (std::size_t j = i; j < n; ++j) {
      total[l] += static_cast<double>(x[l][j]);
    }
  }
}

/// Per-lane state of centered_dot_norm_avx2: the broadcast mean and the
/// even (samples [8k, 8k+4) plus a trailing 4-block) and odd (samples
/// [8k+4, 8k+8)) dot / squared-norm accumulators.
template <std::size_t L>
struct CenteredAcc {
  __m256d vmean[L];
  __m256d dot0[L];
  __m256d nsq0[L];
  __m256d dot1[L];
  __m256d nsq1[L];
};

/// Runs the even chains (kEven) and/or the odd chains (kOdd) of every lane
/// over the vector part of the window; returns where the scalar tail
/// starts.
template <std::size_t L, bool kEven, bool kOdd, typename T>
[[gnu::always_inline]] inline std::size_t centered_chains(
    const double* probe, const T* const* cand, std::size_t n,
    CenteredAcc<L>& acc) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < L; ++l) {
      if constexpr (kEven) {
        const __m256d c0 =
            _mm256_sub_pd(load4(cand[l] + i), acc.vmean[l]);
        acc.dot0[l] =
            _mm256_fmadd_pd(_mm256_loadu_pd(probe + i), c0, acc.dot0[l]);
        acc.nsq0[l] = _mm256_fmadd_pd(c0, c0, acc.nsq0[l]);
      }
      if constexpr (kOdd) {
        const __m256d c1 =
            _mm256_sub_pd(load4(cand[l] + i + 4), acc.vmean[l]);
        acc.dot1[l] =
            _mm256_fmadd_pd(_mm256_loadu_pd(probe + i + 4), c1, acc.dot1[l]);
        acc.nsq1[l] = _mm256_fmadd_pd(c1, c1, acc.nsq1[l]);
      }
    }
  }
  if (i + 4 <= n) {
    if constexpr (kEven) {
      for (std::size_t l = 0; l < L; ++l) {
        const __m256d c0 =
            _mm256_sub_pd(load4(cand[l] + i), acc.vmean[l]);
        acc.dot0[l] =
            _mm256_fmadd_pd(_mm256_loadu_pd(probe + i), c0, acc.dot0[l]);
        acc.nsq0[l] = _mm256_fmadd_pd(c0, c0, acc.nsq0[l]);
      }
    }
    i += 4;
  }
  return i;
}

/// centered_dot_norm_avx2 over L candidates in lockstep: lane l is exactly
/// centered_dot_norm_avx2(probe, cand[l], n, mean[l]).  One lane runs both
/// chain pairs in one pass; several lanes run the even and the odd chains
/// as two passes, so all accumulators fit in the 16 vector registers.
template <std::size_t L, typename T>
[[gnu::always_inline]] inline void centered_lanes(const double* probe,
                                                  const T* const* cand,
                                                  std::size_t n,
                                                  const double* mean,
                                                  DotNormSq* out) {
  CenteredAcc<L> acc;
  for (std::size_t l = 0; l < L; ++l) {
    acc.vmean[l] = _mm256_set1_pd(mean[l]);
    acc.dot0[l] = _mm256_setzero_pd();
    acc.nsq0[l] = _mm256_setzero_pd();
    acc.dot1[l] = _mm256_setzero_pd();
    acc.nsq1[l] = _mm256_setzero_pd();
  }
  std::size_t i = 0;
  if constexpr (L == 1) {
    i = centered_chains<L, true, true>(probe, cand, n, acc);
  } else {
    i = centered_chains<L, true, false>(probe, cand, n, acc);
    centered_chains<L, false, true>(probe, cand, n, acc);
  }
  for (std::size_t l = 0; l < L; ++l) {
    out[l].dot = hsum(_mm256_add_pd(acc.dot0[l], acc.dot1[l]));
    out[l].norm_sq = hsum(_mm256_add_pd(acc.nsq0[l], acc.nsq1[l]));
    // Explicit fma: left to the compiler, contraction differs between lane
    // counts and optimization levels, and lanes would stop matching.
    for (std::size_t j = i; j < n; ++j) {
      const double centered = static_cast<double>(cand[l][j]) - mean[l];
      out[l].dot = std::fma(probe[j], centered, out[l].dot);
      out[l].norm_sq = std::fma(centered, centered, out[l].norm_sq);
    }
  }
}

}  // namespace

double sum_avx2(const double* x, std::size_t n) {
  double total = 0.0;
  sum_lanes<1>(&x, n, &total);
  return total;
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  double total = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    total += a[i] * b[i];
  }
  return total;
}

DotNormSq centered_dot_norm_avx2(const double* probe, const double* cand,
                                 std::size_t n, double mean) {
  DotNormSq out;
  centered_lanes<1>(probe, &cand, n, &mean, &out);
  return out;
}

void ncc_x4_avx2(const double* probe, const float* const* cand,
                 std::size_t n, DotNormSq* out) {
  double mean[kNccLanes];
  sum_lanes<kNccLanes>(cand, n, mean);
  for (double& m : mean) {
    m /= static_cast<double>(n);
  }
  centered_lanes<kNccLanes>(probe, cand, n, mean, out);
}

double abs_sum_avx2(const double* a, const double* b, std::size_t n) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_andnot_pd(sign_mask, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_andnot_pd(sign_mask, d1));
  }
  if (i + 4 <= n) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc0 = _mm256_add_pd(acc0, _mm256_andnot_pd(sign_mask, d0));
    i += 4;
  }
  double total = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    total += std::abs(a[i] - b[i]);
  }
  return total;
}

double abs_sum_capped_avx2(const double* a, const double* b, std::size_t n,
                           double threshold, std::size_t* consumed) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  double acc = 0.0;
  std::size_t i = 0;
  // Cap check once per 4-lane block.  The predicate is written as
  // (acc > threshold) so a NaN accumulator never exits early — matching
  // the scalar arm, which also keeps consuming on NaN.
  while (i + 4 <= n) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc += hsum(_mm256_andnot_pd(sign_mask, d));
    i += 4;
    if (acc > threshold) {
      if (consumed != nullptr) {
        *consumed += i;
      }
      return acc;
    }
  }
  while (i < n) {
    acc += std::abs(a[i] - b[i]);
    ++i;
    if (acc > threshold) {
      break;
    }
  }
  if (consumed != nullptr) {
    *consumed += i;
  }
  return acc;
}

}  // namespace emap::dsp::kernels
