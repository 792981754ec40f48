// Signal cross-correlation (paper Eq. 2).
//
// The paper's ω(A, B) is the sliding dot product of two 256-sample windows;
// the search threshold δ = 0.8 only has scale-free meaning for normalized
// windows, so the primary similarity used by EMAP is the normalized
// cross-correlation (NCC): mean-removed, unit-norm dot product in [-1, 1].
// The raw dot product is also exposed for the exhaustive baseline and the
// cost model (one "correlation op" = window-length multiply-accumulates).
//
// Inner loops run through the simd.hpp dispatch (scalar or AVX2+FMA;
// EMAP_SIMD overrides).  Scalar mode reproduces the pre-SIMD results
// bit-for-bit; the AVX2 arm agrees within the pinned ULP bound enforced
// by tests/support/kernel_diff.hpp.  Probe normalization
// (NormalizedWindow's constructor) is deliberately always scalar — it
// runs once per probe, and keeping it arm-independent confines every
// scalar/AVX2 divergence to the per-candidate pass.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace emap::dsp {

/// Raw sliding dot product at a single alignment (Eq. 2 verbatim).
/// Requires equal non-zero lengths.
double dot_correlation(std::span<const double> a, std::span<const double> b);

/// Normalized cross-correlation of two equal-length windows:
/// NCC = <a - mean(a), b - mean(b)> / (||a - mean(a)|| * ||b - mean(b)||).
/// Degenerate windows (zero variance) correlate as 0 against anything,
/// except two degenerate windows which correlate as 1 (both "flat").
/// Result is clamped to [-1, 1] against floating-point drift.
double normalized_correlation(std::span<const double> a,
                              std::span<const double> b);

/// Finishes one NCC from a candidate's centered dot product with a
/// normalized probe and its centered squared norm (kernels::DotNormSq):
/// dot / ||candidate||, clamped to [-1, 1]; 0 for a degenerate (zero
/// variance) candidate.  NormalizedWindow::correlate and the lockstep MDB
/// scan both end here, so they agree bit for bit.
double ncc_from_centered(double dot, double norm_sq);

/// Precomputed zero-mean/unit-norm view of a window, so one input can be
/// correlated against many candidates without re-normalizing.
class NormalizedWindow {
 public:
  /// Normalizes `window`; degenerate (zero variance) windows are flagged.
  explicit NormalizedWindow(std::span<const double> window);

  /// NCC between this window and raw candidate samples of the same length.
  /// Requires candidate.size() == size().
  double correlate(std::span<const double> candidate) const;

  /// NCC between two pre-normalized windows (plain dot product).
  double correlate(const NormalizedWindow& other) const;

  std::size_t size() const { return normalized_.size(); }
  bool degenerate() const { return degenerate_; }
  std::span<const double> samples() const { return normalized_; }

 private:
  std::vector<double> normalized_;
  bool degenerate_ = false;
};

/// Full cross-correlation sequence of `probe` slid across `haystack`:
/// result[k] = NCC(probe, haystack[k : k+probe.size()]) for every full
/// overlap offset k in [0, haystack.size() - probe.size()].
/// Returns empty when probe is longer than haystack or either is empty.
std::vector<double> sliding_ncc(std::span<const double> probe,
                                std::span<const double> haystack);

}  // namespace emap::dsp
