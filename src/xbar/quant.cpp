#include "xbar/quant.hpp"

#include <cmath>

#include "tensor/check.hpp"

namespace tinyadc::xbar {

QuantParams fit_signed(float max_abs, int bits) {
  TINYADC_CHECK(bits >= 2 && bits <= 16, "signed quant bits must be in [2,16]");
  QuantParams p;
  p.bits = bits;
  const auto qmax = static_cast<float>((1 << (bits - 1)) - 1);
  p.scale = (max_abs > 0.0F) ? max_abs / qmax : 1.0F;
  return p;
}

QuantParams fit_unsigned(float max_value, int bits) {
  TINYADC_CHECK(bits >= 1 && bits <= 16, "unsigned quant bits must be in [1,16]");
  QuantParams p;
  p.bits = bits;
  const auto qmax = static_cast<float>((1 << bits) - 1);
  p.scale = (max_value > 0.0F) ? max_value / qmax : 1.0F;
  return p;
}

std::int32_t quantize_signed(float v, const QuantParams& p) {
  // Round the magnitude with the unsigned rule (clamped in float before the
  // conversion, so huge values saturate instead of wrapping), then restore
  // the sign: round half away from zero, like lround.
  QuantParams half = p;
  half.bits = p.bits - 1;
  const std::int32_t mag = quantize_unsigned(std::fabs(v), half);
  return std::signbit(v) ? -mag : mag;
}

float dequantize(std::int32_t q, const QuantParams& p) {
  return static_cast<float>(q) * p.scale;
}

int cells_per_weight(int weight_bits, int cell_bits) {
  TINYADC_CHECK(weight_bits >= 2, "weight_bits must be >= 2");
  TINYADC_CHECK(cell_bits >= 1, "cell_bits must be >= 1");
  const int magnitude_bits = weight_bits - 1;  // sign handled differentially
  return (magnitude_bits + cell_bits - 1) / cell_bits;
}

std::vector<int> slice_magnitude(std::int32_t magnitude, int cell_bits,
                                 int num_slices) {
  TINYADC_CHECK(magnitude >= 0, "magnitude must be non-negative");
  TINYADC_CHECK(num_slices >= 1, "need at least one slice");
  const std::int32_t mask = (1 << cell_bits) - 1;
  std::vector<int> slices(static_cast<std::size_t>(num_slices));
  std::int32_t rest = magnitude;
  for (int j = 0; j < num_slices; ++j) {
    slices[static_cast<std::size_t>(j)] = rest & mask;
    rest >>= cell_bits;
  }
  TINYADC_CHECK(rest == 0, "magnitude " << magnitude << " does not fit "
                                        << num_slices << " x " << cell_bits
                                        << "-bit slices");
  return slices;
}

std::int32_t unslice_magnitude(const std::vector<int>& slices, int cell_bits) {
  std::int32_t v = 0;
  for (std::size_t j = slices.size(); j > 0; --j) {
    v = (v << cell_bits) | slices[j - 1];
  }
  return v;
}

}  // namespace tinyadc::xbar
