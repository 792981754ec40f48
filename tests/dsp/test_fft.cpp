#include "emap/dsp/fft.hpp"

#include <gtest/gtest.h>

#include <complex>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::dsp {
namespace {

// Naive O(n^2) DFT reference.
std::vector<std::complex<double>> naive_dft(
    const std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(j) / static_cast<double>(n);
      acc += x[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(12, {1.0, 0.0});
  EXPECT_THROW(fft_inplace(data), InvalidArgument);
  data.clear();
  EXPECT_THROW(fft_inplace(data), InvalidArgument);
}

TEST(Fft, MatchesNaiveDft) {
  Rng rng(3);
  std::vector<std::complex<double>> data(64);
  for (auto& v : data) {
    v = {rng.normal(), rng.normal()};
  }
  auto expected = naive_dft(data);
  fft_inplace(data);
  for (std::size_t k = 0; k < data.size(); ++k) {
    EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-9);
    EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(7);
  std::vector<std::complex<double>> data(128);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = {rng.normal(), 0.0};
    time_energy += std::norm(v);
  }
  fft_inplace(data);
  double freq_energy = 0.0;
  for (const auto& v : data) {
    freq_energy += std::norm(v);
  }
  EXPECT_NEAR(freq_energy / static_cast<double>(data.size()), time_energy,
              1e-6);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(256), 256u);
  EXPECT_EQ(next_pow2(257), 512u);
  EXPECT_THROW(next_pow2(0), InvalidArgument);
}

TEST(Fft, PowerSpectrumPeaksAtToneFrequency) {
  const double fs = 256.0;
  const double freq = 32.0;
  const auto signal = testing::sine(freq, fs, 512, 1.0);
  const auto power = power_spectrum(signal);
  std::size_t argmax = 0;
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (power[k] > power[argmax]) {
      argmax = k;
    }
  }
  const double bin_hz = fs / 512.0;
  EXPECT_NEAR(static_cast<double>(argmax) * bin_hz, freq, bin_hz);
}

TEST(Fft, BandPowerIsolatesTone) {
  const double fs = 256.0;
  const auto signal = testing::sine(20.0, fs, 1024, 1.0);
  const double in_band = band_power(signal, fs, 15.0, 25.0);
  const double out_band = band_power(signal, fs, 40.0, 100.0);
  EXPECT_GT(in_band, 100.0 * out_band);
}

TEST(Fft, BandPowerEmptySignalIsZero) {
  EXPECT_DOUBLE_EQ(band_power({}, 256.0, 1.0, 10.0), 0.0);
}

TEST(Fft, BandPowerRejectsInvertedBand) {
  const auto signal = testing::sine(20.0, 256.0, 128);
  EXPECT_THROW(band_power(signal, 256.0, 30.0, 10.0), InvalidArgument);
}

}  // namespace
}  // namespace emap::dsp
