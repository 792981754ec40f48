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
//
// screen_x4_avx2 is the one kernel here that is not equivalent to a
// scalar one: it computes the NCC sums in f32, and the scan trusts it only
// through the error bound it evaluates (ScreenProbe::Bound), whose chain
// depth this kernel's structure sets.
#include <immintrin.h>

#include <cmath>
#include <limits>

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

/// Horizontal sum of one 8-lane f32 accumulator: three levels of adds.
inline float hsum(__m256 v) {
  __m128 lo =
      _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  return _mm_cvtss_f32(lo);
}

/// Four samples as f64: a plain load, or an f32 load widened by cvtps2pd
/// (exact), so the f32 candidates of ncc_x1 feed the same f64 arithmetic.
inline __m256d load4(const double* p) { return _mm256_loadu_pd(p); }
inline __m256d load4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/// The sum over f64 or f32 samples (an f32 block is widened exactly, so
/// both instantiations run the same f64 arithmetic): 2x4-lane
/// accumulators, one fold and a scalar tail.
template <typename T>
double sum_of(const T* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(acc0, load4(x + i));
    acc1 = _mm256_add_pd(acc1, load4(x + i + 4));
  }
  if (i + 4 <= n) {
    acc0 = _mm256_add_pd(acc0, load4(x + i));
    i += 4;
  }
  double total = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    total += static_cast<double>(x[i]);
  }
  return total;
}

/// The centered dot and squared norm over f64 or f32 candidate samples:
/// even (samples [8k, 8k+4) plus a trailing 4-block) and odd (samples
/// [8k+4, 8k+8)) FMA chains, one fold each and a scalar tail.
template <typename T>
DotNormSq centered_of(const double* probe, const T* cand, std::size_t n,
                      double mean) {
  const __m256d vmean = _mm256_set1_pd(mean);
  __m256d dot0 = _mm256_setzero_pd();
  __m256d nsq0 = _mm256_setzero_pd();
  __m256d dot1 = _mm256_setzero_pd();
  __m256d nsq1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d c0 = _mm256_sub_pd(load4(cand + i), vmean);
    dot0 = _mm256_fmadd_pd(_mm256_loadu_pd(probe + i), c0, dot0);
    nsq0 = _mm256_fmadd_pd(c0, c0, nsq0);
    const __m256d c1 = _mm256_sub_pd(load4(cand + i + 4), vmean);
    dot1 = _mm256_fmadd_pd(_mm256_loadu_pd(probe + i + 4), c1, dot1);
    nsq1 = _mm256_fmadd_pd(c1, c1, nsq1);
  }
  if (i + 4 <= n) {
    const __m256d c0 = _mm256_sub_pd(load4(cand + i), vmean);
    dot0 = _mm256_fmadd_pd(_mm256_loadu_pd(probe + i), c0, dot0);
    nsq0 = _mm256_fmadd_pd(c0, c0, nsq0);
    i += 4;
  }
  DotNormSq out;
  out.dot = hsum(_mm256_add_pd(dot0, dot1));
  out.norm_sq = hsum(_mm256_add_pd(nsq0, nsq1));
  // Explicit fma: left to the compiler, contraction could differ between
  // the f64 and f32 instantiations, and ncc_x1 would stop matching
  // centered_dot_norm.
  for (; i < n; ++i) {
    const double centered = static_cast<double>(cand[i]) - mean;
    out.dot = std::fma(probe[i], centered, out.dot);
    out.norm_sq = std::fma(centered, centered, out.norm_sq);
  }
  return out;
}

}  // namespace

double sum_avx2(const double* x, std::size_t n) { return sum_of(x, n); }

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
  return centered_of(probe, cand, n, mean);
}

DotNormSq ncc_x1_avx2(const double* probe, const float* cand, std::size_t n) {
  const double mean = sum_of(cand, n) / static_cast<double>(n);
  return centered_of(probe, cand, n, mean);
}

void screen_x4_avx2(const ScreenProbe& probe, const float* const* cand,
                    std::size_t n, OmegaRange* out) {
  constexpr std::size_t L = kNccLanes;
  static_assert(L == 4, "one __m256d holds the four lanes' bounds");
  const float* p = probe.samples();
  __m256 sum[L];
  for (std::size_t l = 0; l < L; ++l) {
    sum[l] = _mm256_setzero_ps();
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < L; ++l) {
      sum[l] = _mm256_add_ps(sum[l], _mm256_loadu_ps(cand[l] + i));
    }
  }
  const std::size_t tail = i;
  alignas(16) float mean[L];
  __m256 vmean[L];
  __m256 dot[L];
  __m256 nsq[L];
  for (std::size_t l = 0; l < L; ++l) {
    float total = hsum(sum[l]);
    for (std::size_t j = tail; j < n; ++j) {
      total += cand[l][j];
    }
    mean[l] = total / static_cast<float>(n);
    vmean[l] = _mm256_set1_ps(mean[l]);
    dot[l] = _mm256_setzero_ps();
    nsq[l] = _mm256_setzero_ps();
  }
  for (i = 0; i < tail; i += 8) {
    const __m256 pv = _mm256_loadu_ps(p + i);
    for (std::size_t l = 0; l < L; ++l) {
      const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(cand[l] + i), vmean[l]);
      dot[l] = _mm256_fmadd_ps(pv, c, dot[l]);
      nsq[l] = _mm256_fmadd_ps(c, c, nsq[l]);
    }
  }
  alignas(16) float d[L];
  alignas(16) float q[L];
  for (std::size_t l = 0; l < L; ++l) {
    d[l] = hsum(dot[l]);
    q[l] = hsum(nsq[l]);
    for (std::size_t j = tail; j < n; ++j) {
      const float c = cand[l][j] - mean[l];
      d[l] = std::fma(p[j], c, d[l]);
      q[l] = std::fma(c, c, q[l]);
    }
  }

  // The bound, lane-parallel in f64 (see ScreenProbe::Bound).
  const ScreenProbe::Bound& b = probe.bound();
  const auto set = [](double v) { return _mm256_set1_pd(v); };
  const __m256d sign = set(-0.0);
  const __m256d m = _mm256_andnot_pd(sign, _mm256_cvtps_pd(_mm_load_ps(mean)));
  const __m256d vd = _mm256_cvtps_pd(_mm_load_ps(d));
  const __m256d vq = _mm256_cvtps_pd(_mm_load_ps(q));
  const __m256d n_d = set(b.n);
  // Ordered compares, so NaN fails each: finite m, d and q, q >= the
  // minimum.
  const __m256d inf = set(std::numeric_limits<double>::infinity());
  __m256d ok = _mm256_and_pd(
      _mm256_cmp_pd(m, inf, _CMP_LT_OQ),
      _mm256_cmp_pd(_mm256_andnot_pd(sign, vd), inf, _CMP_LT_OQ));
  ok = _mm256_and_pd(ok, _mm256_cmp_pd(vq, inf, _CMP_LT_OQ));
  ok = _mm256_and_pd(ok, _mm256_cmp_pd(vq, set(ScreenProbe::kMinNormSq), _CMP_GE_OQ));
  const __m256d root = _mm256_sqrt_pd(vq);
  const __m256d omega = _mm256_div_pd(vd, root);
  const __m256d rms = _mm256_mul_pd(root, set(b.rms_scale));
  const __m256d gap32 = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(set(b.mean32[0]), m),
                    _mm256_mul_pd(set(b.mean32[1]), rms)),
      set(b.mean32[2]));
  const __m256d gap32_sq = _mm256_mul_pd(gap32, gap32);
  const __m256d spread_sq = _mm256_sub_pd(
      _mm256_sub_pd(_mm256_mul_pd(vq, set(b.norm_lo)), set(b.norm_slack)),
      _mm256_mul_pd(n_d, gap32_sq));  // <= X²
  ok = _mm256_and_pd(ok,
                     _mm256_cmp_pd(spread_sq, set(ScreenProbe::kMinNormSq), _CMP_GE_OQ));
  const __m256d gap64 = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(set(b.mean64[0]), _mm256_add_pd(m, gap32)),
                    _mm256_mul_pd(set(b.mean64[1]), rms)),
      set(b.mean64[2]));
  const __m256d t = _mm256_div_pd(
      _mm256_mul_pd(n_d, _mm256_add_pd(gap32_sq, _mm256_mul_pd(gap64, gap64))),
      spread_sq);
  const __m256d e = _mm256_add_pd(
      _mm256_mul_pd(
          _mm256_add_pd(
              _mm256_add_pd(set(b.rounding),
                            _mm256_mul_pd(set(b.probe_sum),
                                          _mm256_add_pd(set(2.0), t))),
              _mm256_mul_pd(set(0.5 * b.probe_norm), t)),
          set(ScreenProbe::kInflate)),
      set(ScreenProbe::kFloor));
  ok = _mm256_and_pd(ok, _mm256_cmp_pd(e, inf, _CMP_LT_OQ));  // NaN probe
  // clamp(x, -1, 1) where ok, NaN elsewhere.
  const auto finish = [&](__m256d x) {
    x = _mm256_max_pd(_mm256_min_pd(x, set(1.0)), set(-1.0));
    return _mm256_blendv_pd(set(std::numeric_limits<double>::quiet_NaN()), x,
                            ok);
  };
  const __m256d lo = finish(_mm256_sub_pd(omega, e));
  const __m256d hi = finish(_mm256_add_pd(omega, e));
  alignas(32) double lo_out[L];
  alignas(32) double hi_out[L];
  _mm256_store_pd(lo_out, lo);
  _mm256_store_pd(hi_out, hi);
  for (std::size_t l = 0; l < L; ++l) {
    out[l] = OmegaRange{lo_out[l], hi_out[l]};
  }
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
