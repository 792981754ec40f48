// Channel selection for multi-channel recordings.
//
// The paper's sensor head is a 10-20 electrode cap (Section II), but the
// framework itself consumes one channel: the edge monitors the electrode
// with the strongest content in the EMAP passband.
#pragma once

#include <cstddef>
#include <vector>

namespace emap::dsp {

/// A multi-channel recording block: channels[i] is one electrode's samples.
/// All channels must have equal length.
using ChannelBlock = std::vector<std::vector<double>>;

/// Index of the channel with the strongest 11-40 Hz band power (the EMAP
/// passband) at sample rate `fs_hz`.  Requires a non-empty block of
/// non-empty, equal-length channels.
std::size_t pick_channel(const ChannelBlock& channels, double fs_hz);

}  // namespace emap::dsp
