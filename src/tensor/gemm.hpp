// General matrix multiplication kernels used by the NN stack.
//
// Dependency-free, cache-blocked loops around a 4×32 register-blocked
// microkernel: the accumulator tile is held across the k loop and
// auto-vectorized (build with -DTINYADC_NATIVE=ON to let the compiler use
// the host's full SIMD width). The edge rows and columns that don't fill a
// tile get the microkernel's per-element arithmetic, so every element of C
// is invariant to its row/column offset: a row or column block of a
// product is bit-identical to the standalone product of that block. Work is
// partitioned over globally-aligned row tiles, so results are also
// bit-identical at any thread count. matvec routes through the same blocked
// path (N = 1).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor.hpp"

namespace tinyadc {

/// Reusable operand scratch for gemm's transpose materialization. Transposed
/// operands are copied row-major before the blocked loops; passing the same
/// scratch across calls makes that copy allocation-free after warmup
/// (grow-only buffers). One scratch must not be shared by concurrent gemm
/// calls — give each persistent call site (layer workspace) its own.
struct GemmScratch {
  std::vector<float> a;  ///< op(A) buffer when transpose_a
  std::vector<float> b;  ///< op(B) buffer when transpose_b
};

/// C = alpha * op(A) · op(B) + beta * C.
///
/// A is (M×K) after optional transpose, B is (K×N) after optional transpose,
/// C is (M×N). All matrices are dense row-major 2-D tensors; C must be
/// pre-allocated with the right shape. `scratch` (optional) backs the
/// transpose materialization; nullptr falls back to per-call buffers.
///
/// Every element of C is invariant to its row/column offset: it is
/// bit-identical to the same element of a gemm over just its row of op(A)
/// and its column of op(B). A conv's whole-batch patch matrix therefore
/// gives exactly the per-sample GEMMs' floats.
void gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b,
          Tensor& c, float alpha = 1.0F, float beta = 0.0F,
          GemmScratch* scratch = nullptr);

/// Convenience: returns op(A) · op(B) as a fresh tensor.
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// y = A · x for a 2-D matrix A (M×N) and 1-D vector x (N); returns 1-D (M).
Tensor matvec(const Tensor& a, const Tensor& x);

}  // namespace tinyadc
