// GEMM correctness: fixed cases, transpose variants, alpha/beta contract,
// and a parameterized property sweep against a naive triple loop.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "runtime/parallel.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace tinyadc {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

Tensor transpose(const Tensor& a) {
  Tensor t({a.dim(1), a.dim(0)});
  for (std::int64_t i = 0; i < a.dim(0); ++i)
    for (std::int64_t j = 0; j < a.dim(1); ++j) t.at(j, i) = a.at(i, j);
  return t;
}

TEST(Gemm, Identity) {
  Tensor eye = Tensor::zeros({3, 3});
  for (int i = 0; i < 3; ++i) eye.at(i, i) = 1.0F;
  Rng rng(1);
  Tensor a = Tensor::randn({3, 3}, rng);
  EXPECT_TRUE(allclose(matmul(eye, a), a));
  EXPECT_TRUE(allclose(matmul(a, eye), a));
}

TEST(Gemm, KnownSmallProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0F);
}

TEST(Gemm, BetaAccumulates) {
  Tensor a({2, 2}, {1, 0, 0, 1});
  Tensor b({2, 2}, {1, 2, 3, 4});
  Tensor c = Tensor::full({2, 2}, 10.0F);
  gemm(a, false, b, false, c, 1.0F, 1.0F);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 14.0F);
}

TEST(Gemm, AlphaScales) {
  Tensor a({1, 1}, {3.0F});
  Tensor b({1, 1}, {4.0F});
  Tensor c({1, 1});
  gemm(a, false, b, false, c, 0.5F, 0.0F);
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0F);
}

TEST(Gemm, BetaWithTransposedOperands) {
  // beta != 0 combined with transposed A and B: C = 0.5·AᵀᵀBᵀᵀ… i.e. the
  // full C = alpha·op(A)·op(B) + beta·C contract through the materialized
  // operand path and the microkernel edge cases at once.
  Rng rng(7);
  Tensor a_plain = Tensor::randn({5, 7}, rng);
  Tensor b_plain = Tensor::randn({7, 6}, rng);
  Tensor c0 = Tensor::randn({5, 6}, rng);
  const float alpha = 0.5F, beta = 2.0F;
  Tensor expected = naive_matmul(a_plain, b_plain);
  for (std::int64_t i = 0; i < 5; ++i)
    for (std::int64_t j = 0; j < 6; ++j)
      expected.at(i, j) = alpha * expected.at(i, j) + beta * c0.at(i, j);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const Tensor a = ta ? transpose(a_plain) : a_plain;
      const Tensor b = tb ? transpose(b_plain) : b_plain;
      Tensor c = c0.clone();
      gemm(a, ta, b, tb, c, alpha, beta);
      EXPECT_LT(max_abs_diff(c, expected), 1e-4F)
          << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(Gemm, BetaOneAccumulatesAcrossTileEdges) {
  // Sizes straddling the 4×32 microkernel tile: rows 4+remainder, columns
  // 32+remainder. Two beta=1 accumulations must equal twice one product.
  Rng rng(8);
  Tensor a = Tensor::randn({6, 33}, rng);
  Tensor b = Tensor::randn({33, 37}, rng);
  const Tensor once = matmul(a, b);
  Tensor twice = Tensor::zeros({6, 37});
  gemm(a, false, b, false, twice, 1.0F, 1.0F);
  gemm(a, false, b, false, twice, 1.0F, 1.0F);
  for (std::int64_t i = 0; i < 6; ++i)
    for (std::int64_t j = 0; j < 37; ++j)
      EXPECT_NEAR(twice.at(i, j), 2.0F * once.at(i, j), 1e-4F);
}

TEST(Gemm, DimensionMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  Tensor c({2, 2});
  EXPECT_THROW(gemm(a, false, b, false, c), CheckError);
}

TEST(Gemm, OutputShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({3, 4});
  Tensor c({2, 3});
  EXPECT_THROW(gemm(a, false, b, false, c), CheckError);
}

/// Every element of C is invariant to its row and column offset. A's rows
/// and B's columns, embedded at offsets 0…33 in wider operands, land in
/// 4-row tiles or m % 4 edge rows and in 32-wide column tiles or edge
/// columns; each row of the wide product's block must be bit-identical to
/// the standalone product. A has zero entries, so an edge path that skips
/// zero products (and rounds differently) would show.
TEST(Gemm, ElementsAreInvariantToRowAndColumnOffset) {
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    for (const std::int64_t m : {1, 3, 4, 5, 9})
      for (const std::int64_t k : {1, 27, 64, 65, 577})
        for (const std::int64_t n : {5, 40}) {
          Rng rng(static_cast<std::uint64_t>(m * 7919 + k * 131 + n));
          Tensor a = Tensor::randn({m, k}, rng);
          for (std::int64_t i = 0; i < a.numel(); i += 3) a.data()[i] = 0.0F;
          const Tensor b = Tensor::randn({k, n}, rng);
          const Tensor want = matmul(a, b);
          const auto row_bytes = sizeof(float) * static_cast<std::size_t>(n);
          for (std::int64_t off = 0; off <= 33; ++off) {
            // Two rows and three columns past the block, so it is not
            // always the operands' last tile.
            const std::int64_t wm = off + m + 2;
            const std::int64_t wn = off + n + 3;
            Tensor wa = Tensor::randn({wm, k}, rng);
            std::memcpy(wa.data() + off * k, a.data(),
                        sizeof(float) * static_cast<std::size_t>(m * k));
            Tensor wb = Tensor::randn({k, wn}, rng);
            for (std::int64_t r = 0; r < k; ++r)
              std::memcpy(wb.data() + r * wn + off, b.data() + r * n,
                          row_bytes);
            const Tensor c = matmul(wa, wb);
            for (std::int64_t r = 0; r < m; ++r)
              ASSERT_EQ(std::memcmp(c.data() + (off + r) * wn + off,
                                    want.data() + r * n, row_bytes),
                        0)
                  << "threads=" << threads << " m=" << m << " k=" << k
                  << " n=" << n << " offset=" << off << " row " << r;
          }
        }
  }
  runtime::set_thread_count(0);
}

TEST(Matvec, MatchesGemm) {
  Rng rng(3);
  Tensor a = Tensor::randn({5, 7}, rng);
  Tensor x = Tensor::randn({7}, rng);
  Tensor y = matvec(a, x);
  Tensor ym = matmul(a, x.reshape({7, 1}));
  // matvec routes through the blocked GEMM path, so the match is bit-exact.
  for (std::int64_t i = 0; i < 5; ++i)
    EXPECT_FLOAT_EQ(y.at(i), ym.at(i, 0));
}

TEST(Matvec, LargeShapesMatchNaive) {
  Rng rng(9);
  Tensor a = Tensor::randn({67, 129}, rng);
  Tensor x = Tensor::randn({129}, rng);
  const Tensor y = matvec(a, x);
  for (std::int64_t i = 0; i < 67; ++i) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < 129; ++j)
      acc += static_cast<double>(a.at(i, j)) * x.at(j);
    EXPECT_NEAR(y.at(i), static_cast<float>(acc), 1e-3F) << "row " << i;
  }
}

TEST(Matvec, ValidatesShapes) {
  Tensor a({2, 3});
  Tensor x({2});
  EXPECT_THROW(matvec(a, x), CheckError);
}

/// Property sweep: all four transpose combinations over assorted sizes must
/// match the naive reference.
class GemmSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool, bool>> {
};

TEST_P(GemmSweep, MatchesNaiveReference) {
  const auto [m, k, n, ta, tb] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 73 + k * 37 + n * 11 + ta * 2 + tb));
  Tensor a_plain = Tensor::randn({m, k}, rng);
  Tensor b_plain = Tensor::randn({k, n}, rng);
  const Tensor expected = naive_matmul(a_plain, b_plain);
  const Tensor a = ta ? transpose(a_plain) : a_plain;
  const Tensor b = tb ? transpose(b_plain) : b_plain;
  const Tensor got = matmul(a, b, ta, tb);
  EXPECT_LT(max_abs_diff(got, expected), 1e-3F)
      << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSweep,
    ::testing::Combine(::testing::Values(1, 3, 17, 64),
                       ::testing::Values(1, 5, 33),
                       ::testing::Values(1, 4, 29),
                       ::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace tinyadc
