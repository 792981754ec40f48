// Parameterized properties of the FIR filtering stack.
#include <gtest/gtest.h>

#include "emap/dsp/fir.hpp"

namespace emap::dsp {
namespace {

class FirTapSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FirTapSweep, BandpassShapeHoldsAcrossLengths) {
  FirDesign design;
  design.taps = GetParam();
  FirFilter filter(design);
  // Midband reference gain is normalized to 1 by the designer.
  EXPECT_NEAR(filter.magnitude_response(25.5, 256.0), 1.0, 1e-9);
  // Longer filters give steeper skirts, but even the shortest in the sweep
  // must attenuate far-out-of-band content.
  EXPECT_LT(filter.magnitude_response(2.0, 256.0), 0.2);
  EXPECT_LT(filter.magnitude_response(100.0, 256.0), 0.2);
}

TEST_P(FirTapSweep, GroupDelayIsHalfLength) {
  FirDesign design;
  design.taps = GetParam();
  FirFilter filter(design);
  EXPECT_DOUBLE_EQ(filter.group_delay(),
                   (static_cast<double>(GetParam()) - 1.0) / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FirTapSweep,
                         ::testing::Values(64u, 100u, 101u, 150u, 255u));

}  // namespace
}  // namespace emap::dsp
