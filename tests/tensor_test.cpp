// Unit tests for the Tensor core: construction, geometry, sharing semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace tinyadc {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 1);
}

TEST(Tensor, ZerosHasAllZeroContents) {
  Tensor t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0F);
}

TEST(Tensor, FullFillsValue) {
  Tensor t = Tensor::full({4}, 2.5F);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t.at(i), 2.5F);
}

TEST(Tensor, FromInitializerList) {
  Tensor t = Tensor::from({1.0F, 2.0F, 3.0F});
  EXPECT_EQ(t.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(t.at(1), 2.0F);
}

TEST(Tensor, ConstructFromDataValidatesSize) {
  EXPECT_THROW(Tensor({2, 2}, {1.0F, 2.0F}), CheckError);
  Tensor ok({2, 2}, {1.0F, 2.0F, 3.0F, 4.0F});
  EXPECT_FLOAT_EQ(ok.at(1, 1), 4.0F);
}

TEST(Tensor, DimSupportsNegativeIndexing) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
  EXPECT_THROW(t.dim(3), CheckError);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor t = Tensor::ones({2, 6});
  Tensor r = t.reshape({3, 4});
  EXPECT_TRUE(t.shares_storage_with(r));
  r.at(0) = 9.0F;
  EXPECT_FLOAT_EQ(t.at(0), 9.0F);
}

TEST(Tensor, ReshapeInfersExtent) {
  Tensor t({2, 6});
  EXPECT_EQ(t.reshape({4, -1}).dim(1), 3);
  EXPECT_EQ(t.reshape({-1}).dim(0), 12);
  EXPECT_THROW(t.reshape({5, -1}), CheckError);
  EXPECT_THROW(t.reshape({-1, -1}), CheckError);
}

TEST(Tensor, ReshapeRejectsCountChange) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({2, 4}), CheckError);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::ones({3});
  Tensor c = t.clone();
  EXPECT_FALSE(t.shares_storage_with(c));
  c.at(0) = 5.0F;
  EXPECT_FLOAT_EQ(t.at(0), 1.0F);
}

TEST(Tensor, CopyIsShallow) {
  Tensor t = Tensor::ones({3});
  Tensor c = t;  // NOLINT: intentional shallow copy semantics
  EXPECT_TRUE(t.shares_storage_with(c));
}

TEST(Tensor, At2dBoundsChecked) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0F;
  EXPECT_FLOAT_EQ(t.at(5), 7.0F);  // row-major flat position
  EXPECT_THROW(t.at(2, 0), CheckError);
  EXPECT_THROW(t.at(0, 3), CheckError);
}

TEST(Tensor, At4dLayoutIsNCHW) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 1.0F;
  EXPECT_FLOAT_EQ(t.at(((1 * 3 + 2) * 4 + 3) * 5 + 4), 1.0F);
  EXPECT_THROW(t.at4(2, 0, 0, 0), CheckError);
}

TEST(Tensor, CopyFromOverwritesContents) {
  Tensor a = Tensor::zeros({4});
  Tensor b = Tensor::full({4}, 3.0F);
  a.copy_from(b);
  EXPECT_FLOAT_EQ(a.at(2), 3.0F);
  Tensor c({5});
  EXPECT_THROW(a.copy_from(c), CheckError);
}

TEST(Tensor, RandnIsDeterministicInSeed) {
  Rng r1(11), r2(11);
  Tensor a = Tensor::randn({16}, r1);
  Tensor b = Tensor::randn({16}, r2);
  EXPECT_TRUE(allclose(a, b, 0.0F));
}

TEST(Tensor, ShapeToStringFormat) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, NegativeExtentRejected) {
  EXPECT_THROW(Tensor({2, -1}), CheckError);
}

TEST(TensorOps, AddSubMulScale) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  EXPECT_TRUE(allclose(add(a, b), Tensor::from({5, 7, 9})));
  EXPECT_TRUE(allclose(sub(b, a), Tensor::from({3, 3, 3})));
  EXPECT_TRUE(allclose(mul(a, b), Tensor::from({4, 10, 18})));
  EXPECT_TRUE(allclose(scale(a, 2.0F), Tensor::from({2, 4, 6})));
}

TEST(TensorOps, InPlaceVariantsMutateFirstArg) {
  Tensor a = Tensor::from({1, 2});
  axpy_(a, 2.0F, Tensor::from({10, 20}));
  EXPECT_TRUE(allclose(a, Tensor::from({21, 42})));
  scale_(a, 0.5F);
  EXPECT_TRUE(allclose(a, Tensor::from({10.5F, 21})));
}

TEST(TensorOps, ReluAndAbs) {
  Tensor a = Tensor::from({-1, 0, 2});
  EXPECT_TRUE(allclose(relu(a), Tensor::from({0, 0, 2})));
  EXPECT_TRUE(allclose(abs(a), Tensor::from({1, 0, 2})));
}

TEST(TensorOps, ClampBoundsAndValidates) {
  Tensor a = Tensor::from({-5, 0, 5});
  clamp_(a, -1.0F, 1.0F);
  EXPECT_TRUE(allclose(a, Tensor::from({-1, 0, 1})));
  EXPECT_THROW(clamp_(a, 1.0F, -1.0F), CheckError);
}

TEST(TensorOps, Reductions) {
  Tensor a = Tensor::from({1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(sum(a), -2.0);
  EXPECT_DOUBLE_EQ(mean(a), -0.5);
  EXPECT_FLOAT_EQ(max_value(a), 3.0F);
  EXPECT_FLOAT_EQ(min_value(a), -4.0F);
  EXPECT_FLOAT_EQ(max_abs(a), 4.0F);
  EXPECT_NEAR(frobenius_norm(a), std::sqrt(30.0), 1e-9);
  EXPECT_EQ(count_nonzero(a), 4);
}

/// scan_range must return exactly max_abs(a) (compared bitwise) and
/// min_value(a) < 0 for every input: NaN at index 0 (min_value stays NaN,
/// so no sign is reported) or elsewhere (ignored by both), -0.0 (not
/// negative), infinities, single elements and lengths that are not a
/// multiple of the accumulator lane count.
TEST(TensorOps, ScanRangeMatchesMaxAbsAndMinValue) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto check = [](const Tensor& a) {
    const RangeScan r = scan_range(a);
    const float want = max_abs(a);
    EXPECT_EQ(std::memcmp(&r.max_abs, &want, sizeof(float)), 0)
        << "numel=" << a.numel() << " got " << r.max_abs << " want " << want;
    EXPECT_EQ(r.negative, min_value(a) < 0.0F) << "numel=" << a.numel();
  };
  for (const float v : {0.0F, -0.0F, nan, -nan, 1.5F, -1.5F, inf, -inf})
    check(Tensor::from({v}));
  Rng rng(11);
  for (std::int64_t n = 1; n <= 70; ++n) {
    for (int pattern = 0; pattern < 8; ++pattern) {
      Tensor a = Tensor::randn({n}, rng);
      float* p = a.data();
      switch (pattern) {
        case 0: break;
        case 1: p[0] = nan; break;  // NaN first: no sign, whatever follows
        case 2: p[n - 1] = nan; break;
        case 3:  // non-negative apart from -0.0 entries
          for (std::int64_t i = 0; i < n; ++i)
            p[i] = i % 3 == 0 ? -0.0F : std::fabs(p[i]);
          break;
        case 4:  // one negative value, last (a tail lane when n % 16 != 0)
          for (std::int64_t i = 0; i < n; ++i) p[i] = std::fabs(p[i]);
          p[n - 1] = -0.25F;
          break;
        case 5:  // NaN first, then non-negative values and -0.0
          for (std::int64_t i = 0; i < n; ++i) p[i] = -0.0F;
          p[0] = nan;
          break;
        case 6:
          for (std::int64_t i = 0; i < n; i += 5) p[i] = nan;
          break;
        case 7:
          p[n / 2] = -inf;
          if (n > 2) p[1] = nan;
          break;
      }
      check(a);
    }
  }
  EXPECT_THROW(scan_range(Tensor()), CheckError);
}

TEST(TensorOps, CountNonzeroSkipsZeros) {
  EXPECT_EQ(count_nonzero(Tensor::from({0, 1, 0, 2})), 2);
  EXPECT_EQ(count_nonzero(Tensor::zeros({8})), 0);
}

TEST(TensorOps, ArgmaxRange) {
  Tensor a = Tensor::from({1, 9, 2, 8, 3});
  EXPECT_EQ(argmax_range(a, 0, 5), 1);
  EXPECT_EQ(argmax_range(a, 2, 5), 1);  // index of 8 relative to begin=2
  EXPECT_THROW(argmax_range(a, 3, 3), CheckError);
}

TEST(TensorOps, ApplyTransformsEveryElement) {
  Tensor a = Tensor::from({1, 2, 3});
  apply_(a, [](float v) { return v * v; });
  EXPECT_TRUE(allclose(a, Tensor::from({1, 4, 9})));
}

TEST(TensorOps, AllcloseAndMaxAbsDiff) {
  Tensor a = Tensor::from({1.0F, 2.0F});
  Tensor b = Tensor::from({1.0F, 2.00001F});
  EXPECT_TRUE(allclose(a, b, 1e-4F));
  EXPECT_FALSE(allclose(a, b, 1e-7F));
  EXPECT_NEAR(max_abs_diff(a, b), 1e-5F, 1e-6F);
}

TEST(TensorOps, MismatchedShapesThrow) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(add(a, b), CheckError);
  EXPECT_THROW(max_abs_diff(a, b), CheckError);
}

}  // namespace
}  // namespace tinyadc
