#include "emap/dsp/fir.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>

#include "emap/common/error.hpp"
#include "emap/obs/profiler.hpp"

namespace emap::dsp {
namespace {

// Normalized sinc: sin(pi x) / (pi x), sinc(0) = 1.
double sinc(double x) {
  if (std::abs(x) < 1e-12) {
    return 1.0;
  }
  const double px = std::numbers::pi * x;
  return std::sin(px) / px;
}

// Ideal lowpass impulse response sampled at offset m from the center,
// cutoff expressed as a fraction of the sampling rate (0, 0.5).
double ideal_lowpass(double m, double cutoff_fraction) {
  return 2.0 * cutoff_fraction * sinc(2.0 * cutoff_fraction * m);
}

}  // namespace

std::vector<double> design_fir(const FirDesign& design) {
  require(design.taps >= 2, "design_fir: need at least 2 taps");
  require(design.sample_rate_hz > 0.0, "design_fir: sample rate must be > 0");
  const double nyquist = design.sample_rate_hz / 2.0;
  const double fl = design.low_cut_hz / design.sample_rate_hz;
  const double fh = design.high_cut_hz / design.sample_rate_hz;
  const bool needs_low = design.response != FirResponse::kLowpass;
  const bool needs_high = design.response != FirResponse::kHighpass;
  if (needs_low) {
    require(design.low_cut_hz > 0.0 && design.low_cut_hz < nyquist,
            "design_fir: low cut must lie in (0, fs/2)");
  }
  if (needs_high) {
    require(design.high_cut_hz > 0.0 && design.high_cut_hz < nyquist,
            "design_fir: high cut must lie in (0, fs/2)");
  }
  if (design.response == FirResponse::kBandpass ||
      design.response == FirResponse::kBandstop) {
    require(design.low_cut_hz < design.high_cut_hz,
            "design_fir: band filters need low cut < high cut");
  }

  const std::size_t taps = design.taps;
  const double center = (static_cast<double>(taps) - 1.0) / 2.0;
  std::vector<double> h(taps, 0.0);
  for (std::size_t n = 0; n < taps; ++n) {
    const double m = static_cast<double>(n) - center;
    switch (design.response) {
      case FirResponse::kLowpass:
        h[n] = ideal_lowpass(m, fh);
        break;
      case FirResponse::kHighpass:
        h[n] = sinc(m) - ideal_lowpass(m, fl);
        break;
      case FirResponse::kBandpass:
        h[n] = ideal_lowpass(m, fh) - ideal_lowpass(m, fl);
        break;
      case FirResponse::kBandstop:
        h[n] = sinc(m) - (ideal_lowpass(m, fh) - ideal_lowpass(m, fl));
        break;
    }
  }

  const auto window = make_window(design.window, taps);
  for (std::size_t n = 0; n < taps; ++n) {
    h[n] *= window[n];
  }

  // Normalize to unit gain at the most selective reference frequency so the
  // passband amplitude of filtered EEG is rate-independent.
  double ref_hz = 0.0;
  switch (design.response) {
    case FirResponse::kLowpass:
      ref_hz = 0.0;
      break;
    case FirResponse::kHighpass:
      ref_hz = nyquist * 0.999;
      break;
    case FirResponse::kBandpass:
      ref_hz = 0.5 * (design.low_cut_hz + design.high_cut_hz);
      break;
    case FirResponse::kBandstop:
      ref_hz = 0.0;
      break;
  }
  FirFilter probe{std::vector<double>(h)};
  const double gain = probe.magnitude_response(ref_hz, design.sample_rate_hz);
  require(gain > 1e-9, "design_fir: degenerate design (zero reference gain)");
  for (double& coeff : h) {
    coeff /= gain;
  }
  return h;
}

FirFilter::FirFilter(std::vector<double> coefficients)
    : coefficients_(std::move(coefficients)) {
  require(!coefficients_.empty(), "FirFilter: need at least one coefficient");
  history_.assign(coefficients_.size(), 0.0);
}

FirFilter::FirFilter(const FirDesign& design) : FirFilter(design_fir(design)) {}

FirFilter FirFilter::paper_bandpass() {
  return FirFilter(FirDesign{});
}

std::vector<double> FirFilter::apply(std::span<const double> input) const {
  // Work = samples filtered (the convolution is taps * samples MACs).
  obs::ProfileScope profile_scope("fir_apply");
  profile_scope.add_work(input.size());
  std::vector<double> output(input.size(), 0.0);
  const std::size_t taps = coefficients_.size();
  for (std::size_t k = 0; k < input.size(); ++k) {
    double acc = 0.0;
    const std::size_t reach = std::min(taps - 1, k);
    for (std::size_t i = 0; i <= reach; ++i) {
      acc += coefficients_[i] * input[k - i];
    }
    output[k] = acc;
  }
  return output;
}

double FirFilter::process_sample(double sample) {
  history_[history_pos_] = sample;
  double acc = 0.0;
  std::size_t idx = history_pos_;
  for (double coeff : coefficients_) {
    acc += coeff * history_[idx];
    idx = (idx == 0) ? history_.size() - 1 : idx - 1;
  }
  history_pos_ = (history_pos_ + 1) % history_.size();
  return acc;
}

// Bit-identical to repeated process_sample: each output sums
// coefficients_[k] * x[t - k] for k = 0, 1, ... in that order, one
// rounded multiply and one rounded add per tap (this file is compiled
// without FMA, so nothing contracts).  The block runs over a linear copy
// of the delay line followed by the input, four outputs per pass over
// the taps: four independent add chains instead of one, and no
// circular-index branch.
std::vector<double> FirFilter::process_block(std::span<const double> input) {
  const std::size_t taps = coefficients_.size();
  const std::size_t n = input.size();
  // linear[taps - 1 + t] = input[t]; below it, the previous taps - 1
  // samples, oldest first (history_ slot history_pos_ + 1 onward).
  std::vector<double> linear(taps - 1 + n);
  for (std::size_t j = 0; j + 1 < taps; ++j) {
    linear[j] = history_[(history_pos_ + 1 + j) % taps];
  }
  std::copy(input.begin(), input.end(), linear.begin() + (taps - 1));
  std::vector<double> output(n);
  const double* h = coefficients_.data();
  const double* x = linear.data() + (taps - 1);  // x[t - k], k < taps
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    for (std::size_t k = 0; k < taps; ++k) {
      const double* row = x + t - k;
      acc0 += h[k] * row[0];
      acc1 += h[k] * row[1];
      acc2 += h[k] * row[2];
      acc3 += h[k] * row[3];
    }
    output[t] = acc0;
    output[t + 1] = acc1;
    output[t + 2] = acc2;
    output[t + 3] = acc3;
  }
  for (; t < n; ++t) {
    double acc = 0.0;
    for (std::size_t k = 0; k < taps; ++k) {
      acc += h[k] * x[t - k];
    }
    output[t] = acc;
  }
  // Leave the delay line as n process_sample calls would: the last
  // min(n, taps) samples in the slots they would have been written to.
  for (std::size_t i = n - std::min(n, taps); i < n; ++i) {
    history_[(history_pos_ + i) % taps] = input[i];
  }
  history_pos_ = (history_pos_ + n) % taps;
  return output;
}

void FirFilter::reset() {
  history_.assign(coefficients_.size(), 0.0);
  history_pos_ = 0;
}

void FirFilter::restore_stream(const FirStreamState& state) {
  require(state.history.size() == coefficients_.size() &&
              state.history_pos < std::max<std::size_t>(1,
                                                        state.history.size()),
          "FirFilter::restore_stream: state does not match this filter");
  history_ = state.history;
  history_pos_ = state.history_pos;
}

double FirFilter::magnitude_response(double frequency_hz,
                                     double sample_rate_hz) const {
  require(sample_rate_hz > 0.0, "magnitude_response: sample rate must be > 0");
  const double omega =
      2.0 * std::numbers::pi * frequency_hz / sample_rate_hz;
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t n = 0; n < coefficients_.size(); ++n) {
    acc += coefficients_[n] *
           std::exp(std::complex<double>(0.0, -omega * static_cast<double>(n)));
  }
  return std::abs(acc);
}

}  // namespace emap::dsp
