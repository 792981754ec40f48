#include "emap/dsp/montage.hpp"

#include "emap/common/error.hpp"
#include "emap/dsp/fft.hpp"

namespace emap::dsp {

std::size_t pick_channel(const ChannelBlock& channels, double fs_hz) {
  require(!channels.empty(), "montage: empty channel block");
  const std::size_t length = channels.front().size();
  require(length > 0, "montage: empty channels");
  for (const auto& channel : channels) {
    require(channel.size() == length,
            "montage: channels must have equal length");
  }
  std::size_t best = 0;
  double best_score = -1.0;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const double score = band_power(channels[i], fs_hz, 11.0, 40.0);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

}  // namespace emap::dsp
