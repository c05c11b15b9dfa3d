// Quantization and MLC slicing round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "xbar/quant.hpp"

namespace tinyadc::xbar {
namespace {

TEST(Quant, SignedFitMapsExtremes) {
  const auto p = fit_signed(2.0F, 8);
  EXPECT_EQ(quantize_signed(2.0F, p), 127);
  EXPECT_EQ(quantize_signed(-2.0F, p), -127);
  EXPECT_EQ(quantize_signed(0.0F, p), 0);
}

TEST(Quant, SignedSaturates) {
  const auto p = fit_signed(1.0F, 8);
  EXPECT_EQ(quantize_signed(5.0F, p), 127);
  EXPECT_EQ(quantize_signed(-5.0F, p), -127);
}

TEST(Quant, UnsignedFitMapsRange) {
  const auto p = fit_unsigned(1.0F, 8);
  EXPECT_EQ(quantize_unsigned(1.0F, p), 255);
  EXPECT_EQ(quantize_unsigned(0.0F, p), 0);
  EXPECT_EQ(quantize_unsigned(-0.5F, p), 0);  // negatives clamp
}

/// The libm-free quantizers equal lround then the clamp for every in-range
/// value: ties round away from zero, just-below-half rounds down.
TEST(Quant, TiesMatchLroundThenClamp) {
  for (const int bits : {1, 4, 8, 16}) {
    QuantParams p;
    p.bits = bits;
    p.scale = 1.0F;
    const auto umax = static_cast<float>((1 << bits) - 1);
    const auto smax = static_cast<float>((1 << (bits - 1)) - 1);
    const float probes[] = {0.0F,
                            -0.0F,
                            0.5F,
                            1.5F,
                            2.5F,
                            std::nextafter(0.5F, 0.0F),
                            std::nextafter(0.5F, 1.0F),
                            std::nextafter(1.5F, 0.0F),
                            umax - 0.5F,
                            umax + 0.5F,
                            smax - 0.5F,
                            smax + 0.5F,
                            std::nextafter(umax - 0.5F, 0.0F),
                            0.49F,
                            7.3F,
                            -0.5F,
                            -1.5F,
                            -2.5F,
                            -smax - 0.5F,
                            -smax + 0.5F};
    for (const float v : probes) {
      const long r = std::lround(v);
      EXPECT_EQ(quantize_unsigned(v, p),
                std::clamp<long>(r, 0, static_cast<long>(umax)))
          << "bits=" << bits << " v=" << v;
      if (bits >= 2) {
        EXPECT_EQ(quantize_signed(v, p),
                  std::clamp<long>(r, -static_cast<long>(smax),
                                   static_cast<long>(smax)))
            << "bits=" << bits << " v=" << v;
      }
    }
  }
}

/// Values beyond the int32 range saturate instead of wrapping; NaN maps
/// to 0.
TEST(Quant, HugeInfAndNanSaturate) {
  QuantParams p;
  p.bits = 8;
  p.scale = 1.0F;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float v : {3e9F, 1e12F, 3.4e38F, inf})
    EXPECT_EQ(quantize_unsigned(v, p), 255) << v;
  for (const float v : {-3e9F, -1e12F, -inf})
    EXPECT_EQ(quantize_unsigned(v, p), 0) << v;
  EXPECT_EQ(quantize_unsigned(nan, p), 0);
  for (const float v : {3e9F, 1e12F, 3.4e38F, inf})
    EXPECT_EQ(quantize_signed(v, p), 127) << v;
  for (const float v : {-3e9F, -1e12F, -3.4e38F, -inf})
    EXPECT_EQ(quantize_signed(v, p), -127) << v;
  EXPECT_EQ(quantize_signed(nan, p), 0);
  EXPECT_EQ(quantize_signed(-nan, p), 0);
  // A tiny scale pushes ordinary values out of range the same way.
  p.scale = 1e-30F;
  EXPECT_EQ(quantize_unsigned(1.0F, p), 255);
  EXPECT_EQ(quantize_signed(-1.0F, p), -127);
}

TEST(Quant, ZeroRangeUsesUnitScale) {
  const auto p = fit_signed(0.0F, 8);
  EXPECT_FLOAT_EQ(p.scale, 1.0F);
}

TEST(Quant, DequantizeInvertsWithinHalfStep) {
  const auto p = fit_signed(3.0F, 8);
  for (float v : {-3.0F, -1.7F, 0.0F, 0.4F, 2.99F}) {
    const float back = dequantize(quantize_signed(v, p), p);
    EXPECT_NEAR(back, v, p.scale * 0.5F + 1e-6F);
  }
}

TEST(Quant, BitBoundsValidated) {
  EXPECT_THROW(fit_signed(1.0F, 1), tinyadc::CheckError);
  EXPECT_THROW(fit_signed(1.0F, 17), tinyadc::CheckError);
  EXPECT_THROW(fit_unsigned(1.0F, 0), tinyadc::CheckError);
}

TEST(CellsPerWeight, PaperConfiguration) {
  // 8-bit weights (7-bit magnitude + differential sign) on 2-bit MLCs → 4.
  EXPECT_EQ(cells_per_weight(8, 2), 4);
  EXPECT_EQ(cells_per_weight(8, 3), 3);
  EXPECT_EQ(cells_per_weight(4, 2), 2);
  EXPECT_EQ(cells_per_weight(2, 1), 1);
}

TEST(Slice, RoundTripsAllMagnitudes) {
  for (std::int32_t mag = 0; mag <= 127; ++mag) {
    const auto slices = slice_magnitude(mag, 2, 4);
    EXPECT_EQ(unslice_magnitude(slices, 2), mag);
  }
}

TEST(Slice, LittleEndianOrder) {
  const auto slices = slice_magnitude(0b01'10'11, 2, 3);
  EXPECT_EQ(slices[0], 0b11);
  EXPECT_EQ(slices[1], 0b10);
  EXPECT_EQ(slices[2], 0b01);
}

TEST(Slice, OverflowDetected) {
  EXPECT_THROW(slice_magnitude(128, 2, 3), tinyadc::CheckError);  // needs 4
  EXPECT_THROW(slice_magnitude(-1, 2, 4), tinyadc::CheckError);
}

/// Sweep: slicing round trip for every (cell_bits, magnitude) combination.
class SliceSweep : public ::testing::TestWithParam<int> {};

TEST_P(SliceSweep, RoundTrip) {
  const int cell_bits = GetParam();
  const int slices = cells_per_weight(8, cell_bits);
  for (std::int32_t mag = 0; mag <= 127; mag += 3) {
    EXPECT_EQ(unslice_magnitude(slice_magnitude(mag, cell_bits, slices),
                                cell_bits),
              mag);
  }
}

INSTANTIATE_TEST_SUITE_P(CellBits, SliceSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tinyadc::xbar
