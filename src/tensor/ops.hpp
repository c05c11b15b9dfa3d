// Elementwise and reduction operations on Tensor.
//
// Kept free-function style (I.4): each op states its contract; in-place
// variants carry the `_` suffix convention and mutate their first argument.
#pragma once

#include <cstdint>
#include <functional>

#include "tensor.hpp"

namespace tinyadc {

/// --- elementwise (returning new tensors) --------------------------------

/// c = a + b (shapes must match elementwise).
Tensor add(const Tensor& a, const Tensor& b);
/// c = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
/// c = a ⊙ b (Hadamard product).
Tensor mul(const Tensor& a, const Tensor& b);
/// c = a * s.
Tensor scale(const Tensor& a, float s);
/// c_i = max(a_i, 0).
Tensor relu(const Tensor& a);
/// c_i = |a_i|.
Tensor abs(const Tensor& a);

/// --- elementwise (in place) ----------------------------------------------

/// a += b.
void add_(Tensor& a, const Tensor& b);
/// a -= b.
void sub_(Tensor& a, const Tensor& b);
/// a ⊙= b.
void mul_(Tensor& a, const Tensor& b);
/// a *= s.
void scale_(Tensor& a, float s);
/// a += s * b  (BLAS axpy).
void axpy_(Tensor& a, float s, const Tensor& b);
/// a_i = clamp(a_i, lo, hi).
void clamp_(Tensor& a, float lo, float hi);
/// Applies `f` to every element in place.
void apply_(Tensor& a, const std::function<float(float)>& f);

/// --- reductions -----------------------------------------------------------

/// Σ a_i.
double sum(const Tensor& a);
/// Mean of all elements (0 for empty tensors).
double mean(const Tensor& a);
/// max_i a_i (requires non-empty).
float max_value(const Tensor& a);
/// min_i a_i (requires non-empty).
float min_value(const Tensor& a);
/// max_i |a_i| (0 for empty tensors).
float max_abs(const Tensor& a);

/// What activation calibration reads of a tensor, in one pass.
struct RangeScan {
  float max_abs;  ///< == max_abs(a)
  bool negative;  ///< == (min_value(a) < 0), so false when a_0 is NaN
};
/// max_abs(a) and min_value(a) < 0 in one multi-accumulator pass (requires
/// non-empty); both equal the two calls' results for every input.
RangeScan scan_range(const Tensor& a);
/// sqrt(Σ a_i²) — Frobenius norm.
double frobenius_norm(const Tensor& a);
/// Σ_i [a_i ≠ 0] — support size.
std::int64_t count_nonzero(const Tensor& a);
/// Index of the maximum element in a 1-D slice [begin, end) of flat storage.
std::int64_t argmax_range(const Tensor& a, std::int64_t begin,
                          std::int64_t end);

/// --- comparisons -----------------------------------------------------------

/// True if max_i |a_i − b_i| ≤ tol (shapes must have equal element counts).
bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5F);
/// max_i |a_i − b_i|.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace tinyadc
