#include "emap/dsp/montage.hpp"

#include <gtest/gtest.h>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::dsp {
namespace {

TEST(Montage, PickMaxBandPowerFindsInBandChannel) {
  ChannelBlock block(3);
  block[0] = testing::sine(3.0, 256.0, 512, 5.0);   // out of band, strong
  block[1] = testing::sine(20.0, 256.0, 512, 2.0);  // in band
  block[2] = testing::sine(90.0, 256.0, 512, 5.0);  // out of band
  EXPECT_EQ(pick_channel(block, 256.0), 1u);
}

TEST(Montage, PickRejectsEmptyOrRaggedBlock) {
  EXPECT_THROW(pick_channel({}, 256.0), InvalidArgument);
  EXPECT_THROW(pick_channel(ChannelBlock(2), 256.0), InvalidArgument);
  ChannelBlock ragged(2);
  ragged[0] = testing::noise(5, 64);
  ragged[1] = testing::noise(6, 32);
  EXPECT_THROW(pick_channel(ragged, 256.0), InvalidArgument);
}

}  // namespace
}  // namespace emap::dsp
