#include "gemm.hpp"

#include "runtime/parallel.hpp"

namespace tinyadc {

namespace {

// Copies op(A)'s (M×K) contents into `buf` row-major so the inner kernel
// always streams contiguously. Rows of the result are disjoint, so the
// transpose copy fans out over the runtime (bit-identical: pure data moves).
void materialize_op(const Tensor& a, bool transpose, std::int64_t rows,
                    std::int64_t cols, std::vector<float>& buf) {
  if (buf.size() < static_cast<std::size_t>(rows * cols))
    buf.resize(static_cast<std::size_t>(rows * cols));
  const float* p = a.data();
  if (!transpose) {
    std::copy(p, p + rows * cols, buf.begin());
  } else {
    // a is (cols × rows) stored row-major; we want its transpose.
    float* out = buf.data();
    const std::int64_t grain =
        std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, cols));
    runtime::parallel_for(
        0, rows, grain, [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i)
            for (std::int64_t j = 0; j < cols; ++j)
              out[i * cols + j] = p[j * rows + i];
        });
  }
}

// Block shape of the microkernel: a 4×32 accumulator tile held across the
// k loop. 32-wide is deliberately wider than the baseline x86-64 register
// file: narrow tiles (4×8, 4×16) tempt the register allocator into keeping
// the tile in xmm registers and spilling on every iteration, which measured
// ~3-5 GFLOPs here, while the wide tile makes the compiler vectorize the
// accumulator through L1-resident stack slots (~25 GFLOPs, ~2× the plain
// i-k-j loop at n=256). With -DTINYADC_NATIVE=ON on an AVX-512 machine the
// same 4×32 tile is exactly 8 zmm accumulators and compiles to the
// classical FMA register kernel (~68 GFLOPs measured).
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 32;
constexpr std::int64_t kKBlock = 64;

// Rows per parallel chunk: ~64k flops each so small GEMMs stay on the
// caller and large ones split into enough chunks to balance the lanes.
std::int64_t row_grain(std::int64_t k, std::int64_t n) {
  const std::int64_t flops_per_row = std::max<std::int64_t>(1, 2 * k * n);
  return std::max<std::int64_t>(1, 65536 / flops_per_row);
}

// C[kMR×kNR] += alpha · A[kMR×kk] · B[kk×kNR]. The accumulators stay in
// registers across the k loop; alpha folds in once at the store. Each C row
// depends only on its own A row, so results are independent of which tile
// (or thread) computed the row.
void micro_kernel(const float* a, std::int64_t lda, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc,
                  std::int64_t kk, float alpha) {
  float acc[kMR][kNR] = {};
  for (std::int64_t p = 0; p < kk; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t i = 0; i < kMR; ++i) {
      const float av = a[i * lda + p];
      for (std::int64_t j = 0; j < kNR; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::int64_t i = 0; i < kMR; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < kNR; ++j) crow[j] += alpha * acc[i][j];
  }
}

// Edge path for rows/columns that don't fill a register tile:
// C[i, j0:j1) += alpha · A[i, k0:k1) · B[k0:k1, j0:j1). Each element gets
// the microkernel's arithmetic: the k block sums into a zeroed accumulator
// in the same order, then alpha·acc is added to C once. So no element's
// result depends on whether its row or column lands in a full tile. One
// accumulator row per kEdgeCols-wide chunk keeps the j loop vectorized.
constexpr std::int64_t kEdgeCols = 8 * kNR;

void edge_rows(const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float* c, std::int64_t ldc, std::int64_t i0,
               std::int64_t i1, std::int64_t j0, std::int64_t j1,
               std::int64_t k0, std::int64_t k1, float alpha) {
  float acc[kEdgeCols];
  for (std::int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t jc = j0; jc < j1; jc += kEdgeCols) {
      const std::int64_t w = std::min(kEdgeCols, j1 - jc);
      std::fill(acc, acc + w, 0.0F);
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float av = a[i * lda + kk];
        const float* brow = b + kk * ldb + jc;
        for (std::int64_t j = 0; j < w; ++j) acc[j] += av * brow[j];
      }
      for (std::int64_t j = 0; j < w; ++j) crow[jc + j] += alpha * acc[j];
    }
  }
}

}  // namespace

void gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b,
          Tensor& c, float alpha, float beta, GemmScratch* scratch) {
  TINYADC_CHECK(a.ndim() == 2 && b.ndim() == 2 && c.ndim() == 2,
                "gemm requires 2-D tensors, got " << a.ndim() << "/" << b.ndim()
                                                  << "/" << c.ndim());
  const std::int64_t m = transpose_a ? a.dim(1) : a.dim(0);
  const std::int64_t k = transpose_a ? a.dim(0) : a.dim(1);
  const std::int64_t kb = transpose_b ? b.dim(1) : b.dim(0);
  const std::int64_t n = transpose_b ? b.dim(0) : b.dim(1);
  TINYADC_CHECK(k == kb, "gemm inner-dimension mismatch: " << k << " vs " << kb);
  TINYADC_CHECK(c.dim(0) == m && c.dim(1) == n,
                "gemm output shape " << shape_to_string(c.shape())
                                     << " != [" << m << ", " << n << "]");

  // Materializing transposed operands keeps one hot inner loop. The scratch
  // is per-call by default (the former `static thread_local` buffers aliased
  // whenever gemm re-entered on the same thread — nested calls, pooled
  // workers); hot call sites pass a persistent GemmScratch instead so the
  // copy is allocation-free after warmup.
  std::vector<float> abuf;
  std::vector<float> bbuf;
  std::vector<float>& amat = scratch != nullptr ? scratch->a : abuf;
  std::vector<float>& bmat = scratch != nullptr ? scratch->b : bbuf;
  const float* pa = a.data();
  const float* pb = b.data();
  if (transpose_a) {
    materialize_op(a, true, m, k, amat);
    pa = amat.data();
  }
  if (transpose_b) {
    materialize_op(b, true, k, n, bmat);
    pb = bmat.data();
  }

  // Parallelize over kMR-row register tiles, aligned to row 0 globally.
  // Columns split into kNR-wide register tiles plus an edge; k is blocked so
  // a B panel stays in cache across the i tiles of one chunk. The
  // microkernel and the edge path give every element the same arithmetic
  // in the same operand order, so an element's result depends neither on
  // its row or column offset nor on how many threads split the tile range.
  float* pc = c.data();
  const std::int64_t tiles = (m + kMR - 1) / kMR;
  const std::int64_t n_main = n - n % kNR;
  const std::int64_t tile_grain =
      std::max<std::int64_t>(1, row_grain(k, n) / kMR);
  runtime::parallel_for(
      0, tiles, tile_grain, [&](std::int64_t t0, std::int64_t t1) {
        const std::int64_t i0 = t0 * kMR;
        const std::int64_t i1 = std::min(m, t1 * kMR);
        if (beta == 0.0F) {
          std::fill(pc + i0 * n, pc + i1 * n, 0.0F);
        } else if (beta != 1.0F) {
          for (std::int64_t i = i0 * n; i < i1 * n; ++i) pc[i] *= beta;
        }
        for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
          const std::int64_t k1 = std::min(k, k0 + kKBlock);
          std::int64_t i = i0;
          for (; i + kMR <= i1; i += kMR) {
            for (std::int64_t j = 0; j < n_main; j += kNR)
              micro_kernel(pa + i * k + k0, k, pb + k0 * n + j, n,
                           pc + i * n + j, n, k1 - k0, alpha);
            if (n_main < n)
              edge_rows(pa, k, pb, n, pc, n, i, i + kMR, n_main, n, k0, k1,
                        alpha);
          }
          if (i < i1) edge_rows(pa, k, pb, n, pc, n, i, i1, 0, n, k0, k1,
                                alpha);
        }
      });
}

Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a,
              bool transpose_b) {
  const std::int64_t m = transpose_a ? a.dim(1) : a.dim(0);
  const std::int64_t n = transpose_b ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  gemm(a, transpose_a, b, transpose_b, c);
  return c;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  TINYADC_CHECK(a.ndim() == 2 && x.ndim() == 1,
                "matvec requires (2-D, 1-D), got " << a.ndim() << "-D and "
                                                   << x.ndim() << "-D");
  TINYADC_CHECK(a.dim(1) == x.dim(0),
                "matvec dimension mismatch: " << a.dim(1) << " vs "
                                              << x.dim(0));
  // One code path for all dense products: y (m×1) = A · x (k×1) through the
  // blocked GEMM (reshape shares storage, so gemm writes straight into y).
  Tensor y({a.dim(0)});
  Tensor y_mat = y.reshape({a.dim(0), 1});
  gemm(a, false, x.reshape({x.dim(0), 1}), false, y_mat);
  return y;
}

}  // namespace tinyadc
