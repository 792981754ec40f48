#include "emap/dsp/kernels.hpp"

#include <cmath>
#include <limits>

#include "emap/common/error.hpp"

namespace emap::dsp::kernels {
namespace {

// The sum and centered pass over f64 or f32 samples; an f32 sample is
// widened exactly, so both instantiations run the same f64 arithmetic.
template <typename T>
double sum_of(const T* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]);
  }
  return acc;
}

template <typename T>
DotNormSq centered_dot_norm_of(const double* probe, const T* cand,
                               std::size_t n, double mean) {
  DotNormSq out;
  for (std::size_t i = 0; i < n; ++i) {
    const double centered = static_cast<double>(cand[i]) - mean;
    out.dot += probe[i] * centered;
    out.norm_sq += centered * centered;
  }
  return out;
}

}  // namespace

double sum_scalar(const double* x, std::size_t n) { return sum_of(x, n); }

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

DotNormSq centered_dot_norm_scalar(const double* probe, const double* cand,
                                   std::size_t n, double mean) {
  return centered_dot_norm_of(probe, cand, n, mean);
}

double abs_sum_scalar(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += std::abs(a[i] - b[i]);
  }
  return acc;
}

double abs_sum_capped_scalar(const double* a, const double* b, std::size_t n,
                             double threshold, std::size_t* consumed) {
  double acc = 0.0;
  std::size_t i = 0;
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

DotNormSq ncc_x1_scalar(const double* probe, const float* cand,
                        std::size_t n) {
  const double mean = sum_of(cand, n) / static_cast<double>(n);
  return centered_dot_norm_of(probe, cand, n, mean);
}

namespace {

constexpr KernelTable kScalarTable{
    simd::Level::kScalar,      &sum_scalar,     &dot_scalar,
    &centered_dot_norm_scalar, &abs_sum_scalar, &abs_sum_capped_scalar,
    &ncc_x1_scalar,            nullptr,
};

#ifdef EMAP_HAVE_AVX2
constexpr KernelTable kAvx2Table{
    simd::Level::kAvx2,      &sum_avx2,     &dot_avx2,
    &centered_dot_norm_avx2, &abs_sum_avx2, &abs_sum_capped_avx2,
    &ncc_x1_avx2,            &screen_x4_avx2,
};
#endif

}  // namespace

const KernelTable& table(simd::Level level) {
  if (level == simd::Level::kAvx2) {
#ifdef EMAP_HAVE_AVX2
    return kAvx2Table;
#else
    throw InvalidArgument(
        "kernels::table: AVX2 arm not compiled into this binary");
#endif
  }
  return kScalarTable;
}

const KernelTable& active() {
  const simd::Level level = simd::active_level();
  simd::count_kernel_invocation(level);
  return table(level);
}

// The screen's error bound; screen_x4_avx2 evaluates it per lane from
// these constants.  docs/performance.md ("Screened evaluation") derives
// every term; the names there are used here.  In short, with p
// the f64 probe, c the candidate, μ its exact mean and X its exact
// centered norm, both arms' ω and the screen's ω̃ are each compared with
// ω(μ) = <p, c - μ> / X:
//   - rounding of the screen's chains (depth h, unit u = 2^-24), of the
//     f32 probe copy and of the exact arms' chains (depth n + 8, unit
//     2^-53): lane-independent, Bound::rounding;
//   - each path's mean gap Δ = |m - μ| moves ω by at most
//     Δ |Σp| / X + P n Δ² / (2 X²), with X² >= N_lo - n Δ32².
// Underflow adds at most 2^-150 per f32 rounding; kMinNormSq keeps that,
// and the f64 path's own underflow, far below kFloor.
namespace {

constexpr double kUnit32 = 0x1p-24;
constexpr double kUnit64 = 0x1p-53;
/// Absolute rounding error of one f32 or f64 operation in the subnormal
/// range (2^-150 and 2^-1075), doubled.
constexpr double kTiny32 = 0x1p-149;
constexpr double kTiny64 = 0x1p-1074;
/// Longest window the bound covers; keeps every γ_k below 1e-3.
constexpr std::size_t kMaxScreenWindow = 65536;

/// γ_k = k u / (1 - k u): relative error bound of a depth-k chain.
double gamma(double k, double unit) { return k * unit / (1.0 - k * unit); }

}  // namespace

ScreenProbe::ScreenProbe(std::span<const double> probe)
    : samples_(probe.begin(), probe.end()) {
  Bound& b = bound_;
  b.n = static_cast<double>(probe.size());
  if (probe.empty() || probe.size() > kMaxScreenWindow) {
    b.rounding = std::numeric_limits<double>::quiet_NaN();
    return;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double p : probe) {
    sum += p;
    sum_sq += p * p;
  }
  const double depth32 = std::floor(b.n / 8.0) + 10.0;  // screen_x4_avx2
  const double depth64 = b.n + 8.0;
  const double g32 = gamma(depth32, kUnit32);
  const double g64 = gamma(depth64, kUnit64);
  const double root_n = std::sqrt(b.n);
  // P: ||p|| (and ||f32(p)|| <= (1 + u) ||p|| + 2^-150 sqrt(n)).  A
  // non-finite probe makes P, hence every E, non-finite.
  b.probe_norm = std::sqrt(sum_sq) * kInflate + 0x1p-100;
  const double p_norm = b.probe_norm;
  b.probe_sum = (std::abs(sum) + gamma(b.n, kUnit64) * root_n * p_norm) *
                kInflate / (2.0 * root_n);
  // q = N(m32) (1 + θ), |θ| <= ρ32, give or take `slack`.
  const double rho32 = (1.0 + kUnit32) * (1.0 + kUnit32) * (1.0 + g32) - 1.0;
  const double rho64 = (1.0 + kUnit64) * (1.0 + kUnit64) * (1.0 + g64) - 1.0;
  const double slack = (b.n + 16.0) * kTiny32;
  b.norm_lo = 1.0 / (1.0 + rho32);
  b.norm_slack = slack / (1.0 + rho32);
  b.rms_scale = kInflate / std::sqrt((1.0 - rho32) * b.n);
  const double a32 = (1.0 + kUnit32) * g32 + kUnit32;
  b.mean32[0] = a32 / (1.0 - a32);
  b.mean32[1] = (1.0 + kUnit32) * g32 / (1.0 - a32);
  b.mean32[2] = (depth32 + 1.0) * kTiny32 / (1.0 - a32);
  const double a64 = (1.0 + kUnit64) * g64 + kUnit64;
  b.mean64[0] = a64 / (1.0 - a64);
  b.mean64[1] = (1.0 + kUnit64) * g64 / (1.0 - a64);
  b.mean64[2] = (depth64 + 1.0) * kTiny64 / (1.0 - a64);
  const double dot32 =
      (2.0 * kUnit32 + kUnit32 * kUnit32 + g32 * (1.0 + kUnit32)) * p_norm +
      kTiny32 * root_n;
  const double dot64 = (kUnit64 + g64 * (1.0 + kUnit64)) * p_norm;
  b.rounding = dot32 / std::sqrt(1.0 - rho32) + 0.51 * p_norm * rho32 +
               dot64 / std::sqrt(1.0 - rho64) + 0.51 * p_norm * rho64;
}

}  // namespace emap::dsp::kernels
