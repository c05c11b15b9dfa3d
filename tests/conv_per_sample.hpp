// Per-sample conv passes for tests: each sample of a batch runs alone
// (batch 1) through the same layer, and the results are concatenated. The
// batched conv paths are checked against these.
#pragma once

#include <algorithm>
#include <cstdint>

#include "nn/conv.hpp"

namespace tinyadc::test {

/// Sample `n` of an (N, ...) batch as a batch-1 tensor.
inline Tensor sample_of(const Tensor& x, std::int64_t n) {
  Shape shape = x.shape();
  shape[0] = 1;
  Tensor one(shape);
  const std::int64_t per = one.numel();
  std::copy(x.data() + n * per, x.data() + (n + 1) * per, one.data());
  return one;
}

/// Copies batch-1 tensor `one` into sample slot `n` of `dst`.
inline void put_sample(const Tensor& one, std::int64_t n, Tensor& dst) {
  std::copy(one.data(), one.data() + one.numel(),
            dst.data() + n * one.numel());
}

/// The batch's forward, one batch-1 forward per sample.
inline Tensor per_sample_forward(nn::Conv2d& conv, const Tensor& x,
                                 bool training) {
  Tensor out;
  for (std::int64_t n = 0; n < x.dim(0); ++n) {
    const Tensor y = conv.forward(sample_of(x, n), training);
    if (n == 0) {
      Shape shape = y.shape();
      shape[0] = x.dim(0);
      out = Tensor(shape);
    }
    put_sample(y, n, out);
  }
  return out;
}

/// The batch's backward as one training forward and backward per sample:
/// returns dL/dx, and the parameter gradients accumulate the per-sample
/// sum.
inline Tensor per_sample_backward(nn::Conv2d& conv, const Tensor& x,
                                  const Tensor& grad_output) {
  Tensor grad_input(x.shape());
  for (std::int64_t n = 0; n < x.dim(0); ++n) {
    conv.forward(sample_of(x, n), /*training=*/true);
    put_sample(conv.backward(sample_of(grad_output, n)), n, grad_input);
  }
  return grad_input;
}

}  // namespace tinyadc::test
