#include "emap/dsp/fir.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "emap/common/error.hpp"
#include "support/test_util.hpp"

namespace emap::dsp {
namespace {

TEST(FirDesign, PaperBandpassHas100Taps) {
  const auto filter = FirFilter::paper_bandpass();
  EXPECT_EQ(filter.taps(), 100u);
  EXPECT_NEAR(filter.group_delay(), 49.5, 1e-12);
}

TEST(FirDesign, PaperBandpassPassesMidband) {
  const auto filter = FirFilter::paper_bandpass();
  // Unity (normalized) gain at the geometric center of 11-40 Hz.
  EXPECT_NEAR(filter.magnitude_response(25.5, 256.0), 1.0, 1e-9);
  EXPECT_GT(filter.magnitude_response(20.0, 256.0), 0.85);
  EXPECT_GT(filter.magnitude_response(35.0, 256.0), 0.85);
}

TEST(FirDesign, PaperBandpassAttenuatesStopbands) {
  const auto filter = FirFilter::paper_bandpass();
  EXPECT_LT(filter.magnitude_response(2.0, 256.0), 0.05);
  EXPECT_LT(filter.magnitude_response(5.0, 256.0), 0.05);
  EXPECT_LT(filter.magnitude_response(60.0, 256.0), 0.05);
  EXPECT_LT(filter.magnitude_response(100.0, 256.0), 0.05);
}

TEST(FirDesign, LowpassPassesDcBlocksHigh) {
  FirDesign design;
  design.response = FirResponse::kLowpass;
  design.taps = 101;
  design.high_cut_hz = 30.0;
  FirFilter filter(design);
  EXPECT_NEAR(filter.magnitude_response(0.0, 256.0), 1.0, 1e-9);
  EXPECT_LT(filter.magnitude_response(80.0, 256.0), 0.03);
}

TEST(FirDesign, HighpassBlocksDc) {
  FirDesign design;
  design.response = FirResponse::kHighpass;
  design.taps = 101;
  design.low_cut_hz = 30.0;
  FirFilter filter(design);
  EXPECT_LT(filter.magnitude_response(0.0, 256.0), 0.02);
  EXPECT_GT(filter.magnitude_response(60.0, 256.0), 0.9);
}

TEST(FirDesign, BandstopNotchesTheBand) {
  FirDesign design;
  design.response = FirResponse::kBandstop;
  design.taps = 151;
  design.low_cut_hz = 45.0;
  design.high_cut_hz = 55.0;
  FirFilter filter(design);
  EXPECT_LT(filter.magnitude_response(50.0, 256.0), 0.1);
  EXPECT_GT(filter.magnitude_response(10.0, 256.0), 0.9);
}

TEST(FirDesign, RejectsBadParameters) {
  FirDesign design;
  design.taps = 1;
  EXPECT_THROW(design_fir(design), InvalidArgument);

  design = FirDesign{};
  design.low_cut_hz = 0.0;
  EXPECT_THROW(design_fir(design), InvalidArgument);

  design = FirDesign{};
  design.high_cut_hz = 200.0;  // above Nyquist (128)
  EXPECT_THROW(design_fir(design), InvalidArgument);

  design = FirDesign{};
  design.low_cut_hz = 50.0;
  design.high_cut_hz = 20.0;
  EXPECT_THROW(design_fir(design), InvalidArgument);
}

TEST(FirFilter, RejectsEmptyCoefficients) {
  EXPECT_THROW(FirFilter(std::vector<double>{}), InvalidArgument);
}

TEST(FirFilter, BatchApplyMatchesDirectConvolution) {
  FirFilter filter(std::vector<double>{0.5, 0.25, 0.25});
  const std::vector<double> input = {1.0, 2.0, 3.0, 4.0};
  const auto output = filter.apply(input);
  ASSERT_EQ(output.size(), 4u);
  EXPECT_NEAR(output[0], 0.5, 1e-12);
  EXPECT_NEAR(output[1], 1.25, 1e-12);
  EXPECT_NEAR(output[2], 2.25, 1e-12);
  EXPECT_NEAR(output[3], 3.25, 1e-12);
}

TEST(FirFilter, StreamingMatchesBatch) {
  const auto filter_design = FirDesign{};
  FirFilter batch(filter_design);
  FirFilter streaming(filter_design);
  const auto input = testing::noise(5, 600);
  const auto expected = batch.apply(input);
  const auto actual = streaming.process_block(input);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-9) << "at " << i;
  }
}

TEST(FirFilter, StreamingAcrossBlockBoundariesIsSeamless) {
  FirFilter whole(FirDesign{});
  FirFilter chunked(FirDesign{});
  const auto input = testing::noise(6, 512);
  const auto expected = whole.process_block(input);
  std::vector<double> actual;
  for (std::size_t begin = 0; begin < input.size(); begin += 100) {
    const std::size_t end = std::min(input.size(), begin + 100);
    const auto part = chunked.process_block(
        std::span<const double>(input.data() + begin, end - begin));
    actual.insert(actual.end(), part.begin(), part.end());
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-9);
  }
}

// process_block must equal process_sample bit for bit, and leave the same
// delay line (save_stream), for every block length against every tap
// count: checkpoints and the SessionGolden digests depend on both.
TEST(FirFilter, BlockIsBitIdenticalToPerSampleStreaming) {
  const std::vector<std::vector<double>> designs = {
      {0.75},
      {0.5, -0.25, 0.125},
      FirFilter::paper_bandpass().coefficients(),
  };
  const std::size_t blocks[] = {0, 1, 2, 3, 4, 5, 7, 99, 100, 101, 256, 257};
  for (const auto& coefficients : designs) {
    FirFilter block(coefficients);
    FirFilter reference(coefficients);
    std::uint64_t seed = 40;
    for (int round = 0; round < 3; ++round) {
      for (const std::size_t length : blocks) {
        const auto input = testing::noise(++seed, length, 50.0);
        const auto got = block.process_block(input);
        ASSERT_EQ(got.size(), length);
        for (std::size_t i = 0; i < length; ++i) {
          const double want = reference.process_sample(input[i]);
          ASSERT_EQ(std::memcmp(&want, &got[i], sizeof(double)), 0)
              << coefficients.size() << " taps, block " << length << " at "
              << i << ": " << want << " vs " << got[i];
        }
        const FirStreamState a = block.save_stream();
        const FirStreamState b = reference.save_stream();
        ASSERT_EQ(a.history_pos, b.history_pos);
        ASSERT_EQ(a.history, b.history);
      }
    }
  }
}

TEST(FirFilter, ResetClearsHistory) {
  FirFilter filter(std::vector<double>{1.0, 1.0});
  (void)filter.process_sample(5.0);
  filter.reset();
  EXPECT_NEAR(filter.process_sample(1.0), 1.0, 1e-12);
}

TEST(FirFilter, LinearityHolds) {
  FirFilter f1(FirDesign{});
  FirFilter f2(FirDesign{});
  FirFilter f3(FirDesign{});
  const auto a = testing::sine(20.0, 256.0, 400, 1.0);
  const auto b = testing::noise(8, 400, 0.5);
  std::vector<double> sum(400);
  for (std::size_t i = 0; i < 400; ++i) {
    sum[i] = 2.0 * a[i] + 3.0 * b[i];
  }
  const auto ya = f1.apply(a);
  const auto yb = f2.apply(b);
  const auto ysum = f3.apply(sum);
  for (std::size_t i = 0; i < 400; ++i) {
    EXPECT_NEAR(ysum[i], 2.0 * ya[i] + 3.0 * yb[i], 1e-9);
  }
}

TEST(FirFilter, SinusoidGainMatchesMagnitudeResponse) {
  FirFilter filter(FirDesign{});
  const double freq = 20.0;
  const auto input = testing::sine(freq, 256.0, 2048, 1.0);
  const auto output = filter.apply(input);
  // Steady-state peak after the transient.
  double peak = 0.0;
  for (std::size_t i = 512; i < output.size(); ++i) {
    peak = std::max(peak, std::abs(output[i]));
  }
  EXPECT_NEAR(peak, filter.magnitude_response(freq, 256.0), 0.02);
}

}  // namespace
}  // namespace emap::dsp
