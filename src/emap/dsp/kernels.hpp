// Per-implementation DSP kernels behind the simd.hpp dispatch.
//
// Each hot inner loop exists once per arm with identical signatures over
// raw pointers; the public xcorr/area APIs pick an arm through table() /
// active().  Exposing both arms directly (not just the dispatched blend)
// is what makes the differential kernel-equivalence harness possible:
// tests drive every (kernel, implementation) pair over the same inputs
// and pin the divergence to a ULP bound.
//
// Contracts shared by every arm:
//   - n == 0 is well-defined (sums are 0.0, consumed counts 0) — the
//     public APIs reject empty windows before reaching a kernel, but the
//     harness exercises the kernels' own edge behavior;
//   - non-finite inputs propagate IEEE semantics: any NaN term makes the
//     affected sum NaN in every arm (the AVX2 capped kernel's early-exit
//     predicate is written NaN-safe for exactly this);
//   - the scalar arm accumulates strictly left-to-right and is bit-
//     identical to the pre-SIMD code; the AVX2 arm uses 4-lane partial
//     sums + FMA, so it matches scalar only within the pinned ULP bound
//     (see docs/performance.md, "SIMD dispatch and ULP equivalence").
#pragma once

#include <cstddef>
#include <cstdint>

#include "emap/dsp/simd.hpp"

namespace emap::dsp::kernels {

/// Fused outputs of the NCC candidate pass: centered dot product against a
/// pre-normalized probe, plus the candidate's centered squared norm.
struct DotNormSq {
  double dot = 0.0;
  double norm_sq = 0.0;
};

/// Candidates per lockstep NCC call (ncc_x4).
inline constexpr std::size_t kNccLanes = 4;

// --- scalar arm: the original sequential loops, bit-for-bit -------------

double sum_scalar(const double* x, std::size_t n);
double dot_scalar(const double* a, const double* b, std::size_t n);
DotNormSq centered_dot_norm_scalar(const double* probe, const double* cand,
                                   std::size_t n, double mean);
double abs_sum_scalar(const double* a, const double* b, std::size_t n);
/// Early-exit sum of |a[i]-b[i]|: stops once the running sum exceeds
/// `threshold`.  `*consumed` (when non-null) is incremented by the number
/// of samples read — exact for this arm.
double abs_sum_capped_scalar(const double* a, const double* b, std::size_t n,
                             double threshold, std::size_t* consumed);
/// Lockstep NCC pass over kNccLanes f32 candidates (the MDB's resident
/// samples) against an f64 probe: for each lane, mean = sum(cand) / n,
/// then out[lane] = centered_dot_norm(probe, cand, n, mean).  Every lane
/// is bit-identical to that arm's sum + centered_dot_norm on the
/// candidate widened to f64 (widening is exact); the lanes only share the
/// call.  This arm runs the frozen scalar loops once per lane, reading
/// each sample as static_cast<double>(cand[i]).
void ncc_x4_scalar(const double* probe, const float* const* cand,
                   std::size_t n, DotNormSq* out);

// --- AVX2+FMA arm: defined in kernels_avx2.cpp (EMAP_HAVE_AVX2 builds);
// --- never call without a cpu_supports_avx2() check upstream ------------

#ifdef EMAP_HAVE_AVX2
double sum_avx2(const double* x, std::size_t n);
double dot_avx2(const double* a, const double* b, std::size_t n);
DotNormSq centered_dot_norm_avx2(const double* probe, const double* cand,
                                 std::size_t n, double mean);
double abs_sum_avx2(const double* a, const double* b, std::size_t n);
/// AVX2 early-exit checks the cap once per 4-lane block, so `*consumed`
/// is rounded up to block granularity (still <= n, and exact when no
/// early exit happens).  The returned value keeps the scalar contract:
/// exact (within ULP) when the true sum is <= threshold, otherwise merely
/// > threshold.
double abs_sum_capped_avx2(const double* a, const double* b, std::size_t n,
                           double threshold, std::size_t* consumed);
/// Same lane contract as ncc_x4_scalar against sum_avx2 +
/// centered_dot_norm_avx2; each 4-sample candidate block is widened with
/// one cvtps2pd, and the four lanes' dependency chains are interleaved so
/// the FMA pipeline stays full.
void ncc_x4_avx2(const double* probe, const float* const* cand,
                 std::size_t n, DotNormSq* out);
#endif

/// One arm's kernel set.  Function pointers, so benches and the harness
/// can iterate arms uniformly.
struct KernelTable {
  simd::Level level = simd::Level::kScalar;
  double (*sum)(const double*, std::size_t) = nullptr;
  double (*dot)(const double*, const double*, std::size_t) = nullptr;
  DotNormSq (*centered_dot_norm)(const double*, const double*, std::size_t,
                                 double) = nullptr;
  double (*abs_sum)(const double*, const double*, std::size_t) = nullptr;
  double (*abs_sum_capped)(const double*, const double*, std::size_t, double,
                           std::size_t*) = nullptr;
  void (*ncc_x4)(const double*, const float* const*, std::size_t,
                 DotNormSq*) = nullptr;
};

/// The requested arm's table.  Requesting kAvx2 when the binary lacks the
/// arm throws InvalidArgument (callers gate on simd::compiled_with_avx2();
/// running it additionally needs simd::cpu_supports_avx2()).
const KernelTable& table(simd::Level level);

/// The dispatched table for simd::active_level(); bumps that arm's
/// invocation counter (one count per kernel-group use, not per sample).
const KernelTable& active();

}  // namespace emap::dsp::kernels
