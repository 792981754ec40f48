#include "emap/dsp/resample.hpp"

#include <algorithm>
#include <cmath>

#include "emap/common/error.hpp"
#include "emap/dsp/fir.hpp"

namespace emap::dsp {
namespace {

// Anti-alias filter with compensation for its group delay: the output is the
// filtered signal shifted left by (taps-1)/2 so resampled output stays time
// aligned with the input.
std::vector<double> antialias(std::span<const double> input,
                              double input_rate_hz, double cutoff_hz) {
  FirDesign design;
  design.response = FirResponse::kLowpass;
  design.taps = 101;  // odd => integer group delay of 50 samples
  design.sample_rate_hz = input_rate_hz;
  design.high_cut_hz = cutoff_hz;
  design.window = WindowKind::kHamming;
  FirFilter filter{design};

  const std::size_t delay = (design.taps - 1) / 2;
  std::vector<double> padded(input.begin(), input.end());
  padded.insert(padded.end(), delay, input.empty() ? 0.0 : input.back());
  const auto filtered = filter.apply(padded);
  return {filtered.begin() + static_cast<std::ptrdiff_t>(delay),
          filtered.end()};
}

double sample_at(std::span<const double> signal, double position) {
  if (signal.empty()) {
    return 0.0;
  }
  if (position <= 0.0) {
    return signal.front();
  }
  const double last = static_cast<double>(signal.size() - 1);
  if (position >= last) {
    return signal.back();
  }
  const auto base = static_cast<std::size_t>(position);
  const double frac = position - static_cast<double>(base);
  return signal[base] * (1.0 - frac) + signal[base + 1] * frac;
}

}  // namespace

std::vector<double> resample(std::span<const double> input,
                             double input_rate_hz, double output_rate_hz) {
  require(input_rate_hz > 0.0 && output_rate_hz > 0.0,
          "resample: rates must be positive");
  if (input.empty()) {
    return {};
  }
  if (std::abs(input_rate_hz - output_rate_hz) < 1e-9) {
    return {input.begin(), input.end()};
  }

  std::vector<double> source;
  if (output_rate_hz < input_rate_hz) {
    // Downsampling: remove content above the new Nyquist first.
    source = antialias(input, input_rate_hz, 0.45 * output_rate_hz);
  } else {
    source.assign(input.begin(), input.end());
  }

  const double duration = static_cast<double>(input.size()) / input_rate_hz;
  const auto out_count = static_cast<std::size_t>(
      std::max(1.0, std::round(duration * output_rate_hz)));
  const double step = input_rate_hz / output_rate_hz;
  std::vector<double> output(out_count, 0.0);
  for (std::size_t i = 0; i < out_count; ++i) {
    output[i] = sample_at(source, static_cast<double>(i) * step);
  }
  return output;
}

}  // namespace emap::dsp
