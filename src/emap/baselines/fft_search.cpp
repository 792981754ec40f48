#include "emap/baselines/fft_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <mutex>

#include "emap/common/error.hpp"
#include "emap/dsp/fft.hpp"
#include "emap/dsp/xcorr.hpp"

namespace emap::baselines {
namespace {

constexpr double kDegenerateNorm = 1e-12;

// NCC of a zero-mean unit-norm probe against every full-overlap window of
// `samples`, via one frequency-domain correlation plus prefix sums.
std::vector<double> ncc_series_fft(
    const std::vector<std::complex<double>>& probe_spectrum,
    std::size_t probe_len, std::size_t padded,
    std::span<const double> samples) {
  const std::size_t offsets = samples.size() - probe_len + 1;

  // Cross-correlation: IFFT(FFT(samples) * conj(FFT(probe))).
  std::vector<std::complex<double>> spectrum(padded, {0.0, 0.0});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    spectrum[i] = {samples[i], 0.0};
  }
  dsp::fft_inplace(spectrum);
  for (std::size_t i = 0; i < padded; ++i) {
    spectrum[i] *= std::conj(probe_spectrum[i]);
  }
  dsp::ifft_inplace(spectrum);

  // Sliding mean and sum-of-squares from prefix sums.
  std::vector<double> prefix(samples.size() + 1, 0.0);
  std::vector<double> prefix_sq(samples.size() + 1, 0.0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    prefix[i + 1] = prefix[i] + samples[i];
    prefix_sq[i + 1] = prefix_sq[i] + samples[i] * samples[i];
  }

  const double n = static_cast<double>(probe_len);
  std::vector<double> ncc(offsets, 0.0);
  for (std::size_t k = 0; k < offsets; ++k) {
    const double sum = prefix[k + probe_len] - prefix[k];
    const double sum_sq = prefix_sq[k + probe_len] - prefix_sq[k];
    // The probe is zero-mean, so dot(probe, window - mean) == dot(probe,
    // window); the correlation value at lag k is exactly that dot.
    const double dot = spectrum[k].real();
    const double norm_sq = sum_sq - sum * sum / n;
    if (norm_sq < kDegenerateNorm) {
      ncc[k] = 0.0;
      continue;
    }
    ncc[k] = std::clamp(dot / std::sqrt(norm_sq), -1.0, 1.0);
  }
  return ncc;
}

}  // namespace

FftSearch::FftSearch(const core::EmapConfig& config, ThreadPool* pool)
    : config_(config), pool_(pool) {
  config_.validate();
}

core::SearchResult FftSearch::search(std::span<const double> input_window,
                                     const mdb::MdbStore& store) const {
  const auto start_time = std::chrono::steady_clock::now();
  require(input_window.size() == config_.window_length,
          "FftSearch: input window length mismatch");

  // Zero-mean unit-norm probe, shared across sets.  Degenerate probes
  // (constant input) match nothing, like the time-domain searches.
  const dsp::NormalizedWindow probe(input_window);
  const std::size_t window = config_.window_length;

  // All signal-sets share the store's slice length; precompute the probe
  // spectrum at the padded size once per distinct set length.
  const std::size_t set_length = store.info().slice_length;
  const std::size_t padded = dsp::next_pow2(set_length + window);
  std::vector<std::complex<double>> probe_spectrum(padded, {0.0, 0.0});
  if (!probe.degenerate()) {
    const auto normalized = probe.samples();
    for (std::size_t i = 0; i < window; ++i) {
      probe_spectrum[i] = {normalized[i], 0.0};
    }
    dsp::fft_inplace(probe_spectrum);
  }

  std::mutex merge_mutex;
  std::vector<core::SearchMatch> candidates;
  std::atomic<std::uint64_t> total_mults{0};
  std::atomic<std::uint64_t> total_evals{0};
  std::atomic<std::uint64_t> total_hits{0};

  auto scan_range = [&](std::size_t begin, std::size_t end) {
    std::vector<core::SearchMatch> local;
    std::vector<double> samples;  // the set widened to f64 (exact)
    std::uint64_t mults = 0;
    std::uint64_t evals = 0;
    for (std::size_t index = begin; index < end; ++index) {
      const auto& set = store.at(index);
      if (probe.degenerate() || set.samples.size() < window ||
          set.samples.size() != set_length) {
        continue;
      }
      samples.assign(set.samples.begin(), set.samples.end());
      const auto ncc =
          ncc_series_fft(probe_spectrum, window, padded, samples);
      // Cost: two FFTs of `padded` points (~padded log2(padded) complex
      // multiplies) plus the pointwise product.
      const auto log2_padded = static_cast<std::uint64_t>(
          std::llround(std::log2(static_cast<double>(padded))));
      mults += 2 * padded * log2_padded + padded;
      evals += ncc.size();
      // Paper line 4 parity with the time-domain searches: β strictly
      // below len(S) - len(I).
      const std::size_t limit = set.samples.size() - window;
      for (std::size_t beta = 0; beta < limit; ++beta) {
        if (ncc[beta] > config_.delta) {
          local.push_back(core::SearchMatch{index, set.id, ncc[beta], beta,
                                            set.anomalous, set.class_tag});
        }
      }
    }
    total_mults.fetch_add(mults, std::memory_order_relaxed);
    total_evals.fetch_add(evals, std::memory_order_relaxed);
    total_hits.fetch_add(local.size(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(merge_mutex);
    candidates.insert(candidates.end(), local.begin(), local.end());
  };

  if (pool_ != nullptr && pool_->size() > 1) {
    pool_->parallel_for(store.size(), scan_range);
  } else {
    scan_range(0, store.size());
  }

  core::SearchResult result;
  result.matches = core::select_top_k(std::move(candidates), config_.top_k);
  result.stats.correlation_evals = total_evals.load();
  result.stats.mac_ops = total_mults.load();
  result.stats.candidates = total_hits.load();
  result.stats.sets_scanned = store.size();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  return result;
}

}  // namespace emap::baselines
