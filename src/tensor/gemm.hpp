// General matrix multiplication kernels used by the NN stack.
//
// Dependency-free, cache-blocked loops around a 4×32 register-blocked
// microkernel: the accumulator tile is held across the k loop and
// auto-vectorized (build with -DTINYADC_NATIVE=ON to let the compiler use
// the host's full SIMD width). Work is partitioned over
// globally-aligned row tiles, so results are bit-identical at any thread
// count. matvec routes through the same blocked path (N = 1).
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
/// `segment` (0 = the whole width N) splits the N columns into independent
/// segment-wide blocks: each block of C is bit-identical to a standalone
/// gemm of that block of B. It must divide N. A conv runs its batch's
/// patch matrix with segment p (pixels per sample) and so matches
/// per-sample GEMMs exactly.
void gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b,
          Tensor& c, float alpha = 1.0F, float beta = 0.0F,
          GemmScratch* scratch = nullptr, std::int64_t segment = 0);

/// Convenience: returns op(A) · op(B) as a fresh tensor.
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// y = A · x for a 2-D matrix A (M×N) and 1-D vector x (N); returns 1-D (M).
Tensor matvec(const Tensor& a, const Tensor& x);

}  // namespace tinyadc
