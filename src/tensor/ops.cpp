#include "ops.hpp"

#include <algorithm>
#include <cmath>

namespace tinyadc {

namespace {

void check_same_numel(const Tensor& a, const Tensor& b, const char* op) {
  TINYADC_CHECK(a.numel() == b.numel(),
                op << ": element-count mismatch " << a.numel() << " vs "
                   << b.numel());
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor c = a.clone();
  add_(c, b);
  return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor c = a.clone();
  sub_(c, b);
  return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor c = a.clone();
  mul_(c, b);
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a.clone();
  scale_(c, s);
  return c;
}

Tensor relu(const Tensor& a) {
  Tensor c = a.clone();
  float* p = c.data();
  for (std::int64_t i = 0; i < c.numel(); ++i) p[i] = std::max(p[i], 0.0F);
  return c;
}

Tensor abs(const Tensor& a) {
  Tensor c = a.clone();
  float* p = c.data();
  for (std::int64_t i = 0; i < c.numel(); ++i) p[i] = std::fabs(p[i]);
  return c;
}

void add_(Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "add_");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] += pb[i];
}

void sub_(Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "sub_");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] -= pb[i];
}

void mul_(Tensor& a, const Tensor& b) {
  check_same_numel(a, b, "mul_");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] *= pb[i];
}

void scale_(Tensor& a, float s) {
  float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] *= s;
}

void axpy_(Tensor& a, float s, const Tensor& b) {
  check_same_numel(a, b, "axpy_");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] += s * pb[i];
}

void clamp_(Tensor& a, float lo, float hi) {
  TINYADC_CHECK(lo <= hi, "clamp_ requires lo <= hi, got " << lo << " > " << hi);
  float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i)
    pa[i] = std::clamp(pa[i], lo, hi);
}

void apply_(Tensor& a, const std::function<float(float)>& f) {
  float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] = f(pa[i]);
}

double sum(const Tensor& a) {
  double s = 0.0;
  const float* p = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) s += p[i];
  return s;
}

double mean(const Tensor& a) {
  return a.numel() == 0 ? 0.0 : sum(a) / static_cast<double>(a.numel());
}

float max_value(const Tensor& a) {
  TINYADC_CHECK(a.numel() > 0, "max_value of empty tensor");
  const float* p = a.data();
  float m = p[0];
  for (std::int64_t i = 1; i < a.numel(); ++i) m = std::max(m, p[i]);
  return m;
}

float min_value(const Tensor& a) {
  TINYADC_CHECK(a.numel() > 0, "min_value of empty tensor");
  const float* p = a.data();
  float m = p[0];
  for (std::int64_t i = 1; i < a.numel(); ++i) m = std::min(m, p[i]);
  return m;
}

float max_abs(const Tensor& a) {
  const float* p = a.data();
  float m = 0.0F;
  for (std::int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

RangeScan scan_range(const Tensor& a) {
  TINYADC_CHECK(a.numel() > 0, "scan_range of empty tensor");
  // Independent per-lane accumulators let the compiler vectorize the scan.
  // The result does not depend on the lane split: NaN never enters either
  // accumulator (each update keeps its old value on NaN, like std::max in
  // max_abs and std::min in min_value), so both are plain extrema of the
  // non-NaN values. min_value starts at a_0, so a NaN there pins it to NaN.
  constexpr std::int64_t kLanes = 16;
  const float* p = a.data();
  const std::int64_t n = a.numel();
  float hi[kLanes] = {};
  float lo[kLanes] = {};
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (std::int64_t j = 0; j < kLanes; ++j) {
      hi[j] = std::max(hi[j], std::fabs(p[i + j]));
      lo[j] = std::min(lo[j], p[i + j]);
    }
  for (; i < n; ++i) {
    hi[0] = std::max(hi[0], std::fabs(p[i]));
    lo[0] = std::min(lo[0], p[i]);
  }
  RangeScan r{0.0F, false};
  for (std::int64_t j = 0; j < kLanes; ++j) {
    r.max_abs = std::max(r.max_abs, hi[j]);
    r.negative = r.negative || lo[j] < 0.0F;
  }
  r.negative = r.negative && !std::isnan(p[0]);
  return r;
}

double frobenius_norm(const Tensor& a) {
  double s = 0.0;
  const float* p = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i)
    s += static_cast<double>(p[i]) * p[i];
  return std::sqrt(s);
}

std::int64_t count_nonzero(const Tensor& a) {
  std::int64_t n = 0;
  const float* p = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) n += (p[i] != 0.0F);
  return n;
}

std::int64_t argmax_range(const Tensor& a, std::int64_t begin,
                          std::int64_t end) {
  TINYADC_CHECK(begin >= 0 && end <= a.numel() && begin < end,
                "argmax_range [" << begin << ", " << end << ") invalid for "
                                 << a.numel() << " elements");
  const float* p = a.data();
  std::int64_t best = begin;
  for (std::int64_t i = begin + 1; i < end; ++i)
    if (p[i] > p[best]) best = i;
  return best - begin;
}

bool allclose(const Tensor& a, const Tensor& b, float tol) {
  return max_abs_diff(a, b) <= tol;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  TINYADC_CHECK(a.numel() == b.numel(),
                "max_abs_diff element-count mismatch: " << a.numel() << " vs "
                                                        << b.numel());
  const float* pa = a.data();
  const float* pb = b.data();
  float m = 0.0F;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::fabs(pa[i] - pb[i]));
  return m;
}

}  // namespace tinyadc
