#include "emap/dsp/kernels.hpp"

#include <cmath>

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

void ncc_x4_scalar(const double* probe, const float* const* cand,
                   std::size_t n, DotNormSq* out) {
  for (std::size_t lane = 0; lane < kNccLanes; ++lane) {
    const double mean = sum_of(cand[lane], n) / static_cast<double>(n);
    out[lane] = centered_dot_norm_of(probe, cand[lane], n, mean);
  }
}

namespace {

constexpr KernelTable kScalarTable{
    simd::Level::kScalar,      &sum_scalar,     &dot_scalar,
    &centered_dot_norm_scalar, &abs_sum_scalar, &abs_sum_capped_scalar,
    &ncc_x4_scalar,
};

#ifdef EMAP_HAVE_AVX2
constexpr KernelTable kAvx2Table{
    simd::Level::kAvx2,      &sum_avx2,     &dot_avx2,
    &centered_dot_norm_avx2, &abs_sum_avx2, &abs_sum_capped_avx2,
    &ncc_x4_avx2,
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

}  // namespace emap::dsp::kernels
