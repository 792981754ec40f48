#include "emap/dsp/resample.hpp"

#include <gtest/gtest.h>

#include "emap/common/error.hpp"
#include "emap/dsp/fft.hpp"
#include "emap/dsp/stats.hpp"
#include "support/test_util.hpp"

namespace emap::dsp {
namespace {

TEST(Resample, IdentityWhenRatesEqual) {
  const auto input = testing::noise(1, 100);
  const auto output = resample(input, 256.0, 256.0);
  ASSERT_EQ(output.size(), input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_DOUBLE_EQ(output[i], input[i]);
  }
}

TEST(Resample, EmptyInputGivesEmptyOutput) {
  EXPECT_TRUE(resample({}, 100.0, 256.0).empty());
}

TEST(Resample, RejectsNonPositiveRates) {
  const auto input = testing::noise(2, 16);
  EXPECT_THROW(resample(input, 0.0, 256.0), InvalidArgument);
  EXPECT_THROW(resample(input, 256.0, -1.0), InvalidArgument);
}

class ResampleRateTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(ResampleRateTest, PreservesDuration) {
  const auto [from, to] = GetParam();
  const double duration = 3.0;
  const auto input = testing::noise(
      3, static_cast<std::size_t>(duration * from));
  const auto output = resample(input, from, to);
  const double out_duration = static_cast<double>(output.size()) / to;
  EXPECT_NEAR(out_duration, duration, 1.5 / to);
}

TEST_P(ResampleRateTest, PreservesToneFrequency) {
  const auto [from, to] = GetParam();
  const double tone = 15.0;  // safely inside both Nyquist ranges
  const auto input =
      testing::sine(tone, from, static_cast<std::size_t>(4.0 * from));
  const auto output = resample(input, from, to);
  // Dominant output frequency must still be ~15 Hz at the new rate.
  const auto power = power_spectrum(output);
  std::size_t argmax = 1;
  for (std::size_t k = 1; k < power.size(); ++k) {
    if (power[k] > power[argmax]) {
      argmax = k;
    }
  }
  const double padded = static_cast<double>(next_pow2(output.size()));
  const double freq = static_cast<double>(argmax) * to / padded;
  EXPECT_NEAR(freq, tone, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    CorpusRates, ResampleRateTest,
    ::testing::Values(std::make_pair(100.0, 256.0),
                      std::make_pair(173.61, 256.0),
                      std::make_pair(250.0, 256.0),
                      std::make_pair(512.0, 256.0),
                      std::make_pair(256.0, 100.0),
                      std::make_pair(256.0, 512.0)));

TEST(Resample, UpsamplePreservesAmplitude) {
  const auto input = testing::sine(15.0, 128.0, 512, 2.0);
  const auto output = resample(input, 128.0, 256.0);
  EXPECT_NEAR(rms(output), rms(input), 0.1);
}

TEST(Resample, DownsampleRemovesAboveNyquistContent) {
  // 90 Hz tone cannot survive resampling to 100 Hz (Nyquist 50).
  const auto input = testing::sine(90.0, 256.0, 2048, 1.0);
  const auto output = resample(input, 256.0, 100.0);
  EXPECT_LT(rms(output), 0.15);
}

}  // namespace
}  // namespace emap::dsp
