// Fixed-point weight/activation quantization and MLC bit-slicing.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace tinyadc::xbar {

/// Symmetric linear quantizer parameters: real ≈ q · scale with
/// q ∈ [−(2^(bits−1)−1), 2^(bits−1)−1] for signed, [0, 2^bits−1] unsigned.
struct QuantParams {
  int bits = 8;
  float scale = 1.0F;
};

/// Chooses a scale so that `max_abs` maps to the largest signed code.
QuantParams fit_signed(float max_abs, int bits);
/// Chooses a scale so that `max_value` maps to the largest unsigned code.
QuantParams fit_unsigned(float max_value, int bits);

/// Quantizes one value to a signed code: round half away from zero, then
/// saturate to ±qmax. Equal to `lround(v / scale)` clamped to the code
/// range for every in-range value; out-of-range values (huge, ±inf)
/// saturate and NaN maps to 0.
std::int32_t quantize_signed(float v, const QuantParams& p);

/// Quantizes one value to an unsigned code (round half up, negative inputs
/// clamp to 0, huge and +inf inputs to qmax, NaN to 0). Equal to
/// `lround(v / scale)` then the clamp for every in-range value, but clamps
/// in float before the integer conversion, so nothing wraps, and needs no
/// libm call: truncate, then add 1 when the fraction is at least 1/2 (the
/// fraction of a float is exact). Inline so per-element loops vectorize.
inline std::int32_t quantize_unsigned(float v, const QuantParams& p) {
  const auto qmax = static_cast<float>((1 << p.bits) - 1);
  float q = v / p.scale;
  q = q > 0.0F ? q : 0.0F;  // also maps NaN to 0
  q = q < qmax ? q : qmax;
  const auto t = static_cast<std::int32_t>(q);
  return t + static_cast<std::int32_t>(q - static_cast<float>(t) >= 0.5F);
}

/// Reconstructs the real value of a code.
float dequantize(std::int32_t q, const QuantParams& p);

/// Number of `cell_bits` cells needed for a (bits−1)-bit magnitude.
int cells_per_weight(int weight_bits, int cell_bits);

/// Splits a non-negative magnitude into `num_slices` little-endian
/// `cell_bits`-wide slices: magnitude = Σ slice[j] · 2^(j·cell_bits).
std::vector<int> slice_magnitude(std::int32_t magnitude, int cell_bits,
                                 int num_slices);

/// Inverse of slice_magnitude.
std::int32_t unslice_magnitude(const std::vector<int>& slices, int cell_bits);

}  // namespace tinyadc::xbar
