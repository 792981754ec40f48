// Sampling-rate conversion.
//
// The MDB construction stage "collects, up-/down-samples the signals to the
// base frequency of 256 Hz" (paper Section V-B).  The synthetic corpora use
// five distinct native rates, so resampling is on the hot ingest path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace emap::dsp {

/// Resamples `input` from `input_rate_hz` to `output_rate_hz`.
///
/// Implementation: anti-alias lowpass (windowed-sinc, cutoff at 0.45x the
/// lower of the two rates) when downsampling, followed by band-limited
/// linear-phase polyphase interpolation on the continuous-time
/// reconstruction grid.  Output duration matches input duration to within
/// one output sample.  Rates must be positive; an empty input yields an
/// empty output.
std::vector<double> resample(std::span<const double> input,
                             double input_rate_hz, double output_rate_hz);

}  // namespace emap::dsp
