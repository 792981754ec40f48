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
//     (see docs/performance.md, "SIMD dispatch and ULP equivalence");
//   - the AVX2 arm's screen_x4 has no scalar twin: it returns, per lane,
//     an interval proven to hold the ω both arms' exact kernels compute
//     (docs/performance.md, "Screened evaluation").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "emap/dsp/simd.hpp"

namespace emap::dsp::kernels {

/// Fused outputs of the NCC candidate pass: centered dot product against a
/// pre-normalized probe, plus the candidate's centered squared norm.
struct DotNormSq {
  double dot = 0.0;
  double norm_sq = 0.0;
};

/// Signal-sets the lockstep scan walks side by side; candidates per
/// screen_x4 call.
inline constexpr std::size_t kNccLanes = 4;

/// An interval [lo, hi] that holds ω.  {NaN, NaN} when none is known, so
/// every ordered comparison against it fails.
struct OmegaRange {
  double lo = 0.0;
  double hi = 0.0;
};

class ScreenProbe;

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
/// The exact NCC pass over one f32 candidate (the MDB's resident
/// samples) against an f64 probe: mean = sum(cand) / n, then
/// centered_dot_norm(probe, cand, n, mean).  Bit-identical to that arm's
/// sum + centered_dot_norm on the candidate widened to f64 (widening is
/// exact).  This arm runs the frozen scalar loops, reading each sample as
/// static_cast<double>(cand[i]).
DotNormSq ncc_x1_scalar(const double* probe, const float* cand,
                        std::size_t n);

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
/// Same contract as ncc_x1_scalar against sum_avx2 +
/// centered_dot_norm_avx2; each 4-sample candidate block is widened with
/// one cvtps2pd.
DotNormSq ncc_x1_avx2(const double* probe, const float* cand, std::size_t n);
/// The f32 screen of kNccLanes candidates.  Per lane, against the f32
/// probe copy (ScreenProbe::samples): the f32 sum over one 8-wide
/// accumulator, mean m = sum / n, then one 8-wide FMA chain each for the
/// centered dot d and the centered squared norm q; no f64 widening.
/// Every reduction is a chain of at most floor(n/8) vector steps, a
/// 3-level fold and an (n mod 8)-step scalar tail, within the depth
/// ScreenProbe::Bound assumes.  out[lane] = clamp(ω̃ ± E, -1, 1) with
/// ω̃ = d / sqrt(q) and E that lane's error bound, evaluated for the four
/// lanes at once: an interval holding the ω that either arm's exact path
/// computes for the candidate (dsp::ncc_from_centered of ncc_x1).
/// {NaN, NaN} when m, d or q is not finite, when the
/// candidate's centered norm could be degenerate, or when the probe is
/// not finite or longer than the bound covers (docs/performance.md,
/// "Screened evaluation").  `n` must equal the probe's length.
void screen_x4_avx2(const ScreenProbe& probe, const float* const* cand,
                    std::size_t n, OmegaRange* out);
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
  DotNormSq (*ncc_x1)(const double*, const float*, std::size_t) = nullptr;
  /// Null in the scalar arm, which stays the reference and evaluates
  /// every lane exactly.
  void (*screen_x4)(const ScreenProbe&, const float* const*, std::size_t,
                    OmegaRange*) = nullptr;
};

/// The requested arm's table.  Requesting kAvx2 when the binary lacks the
/// arm throws InvalidArgument (callers gate on simd::compiled_with_avx2();
/// running it additionally needs simd::cpu_supports_avx2()).
const KernelTable& table(simd::Level level);

/// The dispatched table for simd::active_level(); bumps that arm's
/// invocation counter (one count per kernel-group use, not per sample).
const KernelTable& active();

/// One probe as the f32 screen sees it: the f32 copy screen_x4 reads and
/// the per-probe constants of the screen's error bound.
class ScreenProbe {
 public:
  /// Constants of E (docs/performance.md, "Screened evaluation"): with
  /// the lane's f32 mean m, dot d and squared norm q,
  ///   r = sqrt(q) * rms_scale          >= sqrt(N_hi / n)
  ///   Δ32 = mean32[0] |m| + mean32[1] r + mean32[2]
  ///   X²_lo = q * norm_lo - norm_slack - n Δ32²
  ///   Δ64 = mean64[0] (|m| + Δ32) + mean64[1] r + mean64[2]
  ///   t = n (Δ32² + Δ64²) / X²_lo
  ///   E = (rounding + probe_sum (2 + t) + probe_norm t / 2) * kInflate
  ///       + kFloor.
  /// The lane has no interval when m, d, q or E is not finite, or when q
  /// or X²_lo is below kMinNormSq.  `rounding` is NaN when the bound
  /// does not apply to this probe.
  struct Bound {
    double n = 0.0;
    double rounding = 0.0;
    double rms_scale = 0.0;
    double norm_lo = 0.0;
    double norm_slack = 0.0;
    double mean32[3] = {};
    double mean64[3] = {};
    double probe_norm = 0.0;  ///< P >= ||p||, ||f32(p)||
    double probe_sum = 0.0;   ///< S / (2 sqrt(n)), S >= |Σ p|
  };

  /// Smallest screened q and bound on X² accepted: 100 times
  /// kDegenerateNorm² (dsp/xcorr.cpp), so the exact path's norm is surely
  /// above kDegenerateNorm and never answers the degenerate 0.
  static constexpr double kMinNormSq = 1e-22;
  /// Covers the f64 evaluation of ω̃ and E, and sqrt(1 + slack / q).
  static constexpr double kInflate = 1.0 + 0x1p-20;
  /// Covers the exact path's final sqrt and divide and all underflow.
  static constexpr double kFloor = 1e-12;

  /// `probe` is the normalized f64 probe the exact kernels read
  /// (NormalizedWindow::samples).
  explicit ScreenProbe(std::span<const double> probe);

  const float* samples() const { return samples_.data(); }
  const Bound& bound() const { return bound_; }

 private:
  std::vector<float> samples_;
  Bound bound_;
};

}  // namespace emap::dsp::kernels
