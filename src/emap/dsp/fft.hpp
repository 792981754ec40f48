// Radix-2 FFT and spectral helpers.
//
// Used by the synthetic EEG generator (spectral shaping checks), the ML
// baseline feature extractor (band powers), and the test suite (verifying
// the paper's 11-40 Hz bandpass).
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace emap::dsp {

/// In-place iterative radix-2 Cooley-Tukey FFT.
/// Requires data.size() to be a power of two (and non-zero).
void fft_inplace(std::vector<std::complex<double>>& data);

/// FFT of a real signal, zero-padded to the next power of two.
/// Returns the full complex spectrum (length = padded size).
std::vector<std::complex<double>> fft_real(std::span<const double> signal);

/// One-sided power spectral estimate |X[k]|^2 / N for k in [0, N/2].
/// Bin k corresponds to frequency k * sample_rate / N where N is the padded
/// FFT length.
std::vector<double> power_spectrum(std::span<const double> signal);

/// Integrated power in [low_hz, high_hz] from the one-sided spectrum of
/// `signal` sampled at `sample_rate_hz`.  Returns 0 for empty signals.
double band_power(std::span<const double> signal, double sample_rate_hz,
                  double low_hz, double high_hz);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

}  // namespace emap::dsp
