#include "emap/dsp/xcorr.hpp"

#include <algorithm>
#include <cmath>

#include "emap/common/error.hpp"
#include "emap/dsp/kernels.hpp"

namespace emap::dsp {
namespace {

constexpr double kDegenerateNorm = 1e-12;

}  // namespace

double dot_correlation(std::span<const double> a, std::span<const double> b) {
  require(!a.empty() && a.size() == b.size(),
          "dot_correlation: windows must have equal non-zero length");
  return kernels::active().dot(a.data(), b.data(), a.size());
}

double normalized_correlation(std::span<const double> a,
                              std::span<const double> b) {
  NormalizedWindow na(a);
  require(a.size() == b.size(),
          "normalized_correlation: windows must have equal length");
  if (na.degenerate()) {
    NormalizedWindow nb(b);
    return nb.degenerate() ? 1.0 : 0.0;
  }
  return na.correlate(b);
}

double ncc_from_centered(double dot, double norm_sq) {
  const double norm = std::sqrt(norm_sq);
  if (norm < kDegenerateNorm) {
    return 0.0;
  }
  return std::clamp(dot / norm, -1.0, 1.0);
}

NormalizedWindow::NormalizedWindow(std::span<const double> window) {
  require(!window.empty(), "NormalizedWindow: empty window");
  normalized_.assign(window.begin(), window.end());
  double mean = 0.0;
  for (double v : normalized_) {
    mean += v;
  }
  mean /= static_cast<double>(normalized_.size());
  double norm_sq = 0.0;
  for (double& v : normalized_) {
    v -= mean;
    norm_sq += v * v;
  }
  const double norm = std::sqrt(norm_sq);
  if (norm < kDegenerateNorm) {
    degenerate_ = true;
    std::fill(normalized_.begin(), normalized_.end(), 0.0);
    return;
  }
  for (double& v : normalized_) {
    v /= norm;
  }
}

double NormalizedWindow::correlate(std::span<const double> candidate) const {
  require(candidate.size() == normalized_.size(),
          "NormalizedWindow::correlate: length mismatch");
  if (degenerate_) {
    return 0.0;
  }
  // Normalize the candidate on the fly: NCC = <a_hat, (b - mean_b)> / ||b - mean_b||.
  // Two passes through the dispatched kernels; the candidate is L1-resident
  // on the second.  A fused one-pass rewrite (norm_sq = sumsq - n*mean^2)
  // was rejected: it cancels catastrophically on offset-dominated windows,
  // which the ULP-equivalence harness would (rightly) flag.
  const auto& kernel = kernels::active();
  const double mean = kernel.sum(candidate.data(), candidate.size()) /
                      static_cast<double>(candidate.size());
  const kernels::DotNormSq cd = kernel.centered_dot_norm(
      normalized_.data(), candidate.data(), candidate.size(), mean);
  return ncc_from_centered(cd.dot, cd.norm_sq);
}

double NormalizedWindow::correlate(const NormalizedWindow& other) const {
  require(other.size() == size(),
          "NormalizedWindow::correlate: length mismatch");
  if (degenerate_ || other.degenerate_) {
    return (degenerate_ && other.degenerate_) ? 1.0 : 0.0;
  }
  const double dot = kernels::active().dot(
      normalized_.data(), other.normalized_.data(), normalized_.size());
  return std::clamp(dot, -1.0, 1.0);
}

std::vector<double> sliding_ncc(std::span<const double> probe,
                                std::span<const double> haystack) {
  if (probe.empty() || haystack.size() < probe.size()) {
    return {};
  }
  const NormalizedWindow normalized_probe(probe);
  const std::size_t offsets = haystack.size() - probe.size() + 1;
  std::vector<double> result(offsets, 0.0);
  for (std::size_t k = 0; k < offsets; ++k) {
    result[k] = normalized_probe.correlate(haystack.subspan(k, probe.size()));
  }
  return result;
}

}  // namespace emap::dsp
