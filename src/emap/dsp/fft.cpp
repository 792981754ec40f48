#include "emap/dsp/fft.hpp"

#include <cmath>
#include <numbers>

#include "emap/common/error.hpp"

namespace emap::dsp {
namespace {

bool is_pow2(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace

void fft_inplace(std::vector<std::complex<double>>& data) {
  const std::size_t n = data.size();
  require(is_pow2(n), "fft: size must be a non-zero power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::size_t next_pow2(std::size_t n) {
  require(n >= 1, "next_pow2: n must be >= 1");
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

std::vector<std::complex<double>> fft_real(std::span<const double> signal) {
  require(!signal.empty(), "fft_real: empty signal");
  const std::size_t padded = next_pow2(signal.size());
  std::vector<std::complex<double>> data(padded, {0.0, 0.0});
  for (std::size_t i = 0; i < signal.size(); ++i) {
    data[i] = {signal[i], 0.0};
  }
  fft_inplace(data);
  return data;
}

std::vector<double> power_spectrum(std::span<const double> signal) {
  const auto spectrum = fft_real(signal);
  const std::size_t n = spectrum.size();
  std::vector<double> power(n / 2 + 1, 0.0);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    power[k] = std::norm(spectrum[k]) / static_cast<double>(n);
  }
  return power;
}

double band_power(std::span<const double> signal, double sample_rate_hz,
                  double low_hz, double high_hz) {
  if (signal.empty()) {
    return 0.0;
  }
  require(sample_rate_hz > 0.0, "band_power: sample rate must be > 0");
  require(low_hz <= high_hz, "band_power: low_hz must be <= high_hz");
  const auto power = power_spectrum(signal);
  const std::size_t padded = next_pow2(signal.size());
  const double bin_hz = sample_rate_hz / static_cast<double>(padded);
  double total = 0.0;
  for (std::size_t k = 0; k < power.size(); ++k) {
    const double freq = static_cast<double>(k) * bin_hz;
    if (freq >= low_hz && freq <= high_hz) {
      total += power[k];
    }
  }
  return total;
}

}  // namespace emap::dsp
