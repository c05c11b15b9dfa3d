// Crossbar mapping: tiling geometry (incl. remainders), quantized round
// trips (P3), occupancy census, crossbar accounting, reference MVM.
#include <gtest/gtest.h>

#include "core/projection.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::xbar {
namespace {

MappingConfig small_config() {
  MappingConfig cfg;
  cfg.dims = {4, 4};
  cfg.weight_bits = 8;
  cfg.cell_bits = 2;
  cfg.input_bits = 4;
  cfg.dac_bits = 1;
  return cfg;
}

TEST(Mapping, ExactTiling) {
  Rng rng(1);
  Tensor m = Tensor::randn({8, 8}, rng);
  const auto layer = map_matrix(m, "l", small_config());
  EXPECT_EQ(layer.block_grid_rows, 2);
  EXPECT_EQ(layer.block_grid_cols, 2);
  EXPECT_EQ(layer.total_blocks(), 4);
  for (const auto& b : layer.blocks) {
    EXPECT_EQ(b.rows, 4);
    EXPECT_EQ(b.cols, 4);
  }
}

TEST(Mapping, RemainderBlocksGetExtraArrays) {
  // Paper §III-C: "if the number of columns/rows cannot be divided by the
  // block size, additional crossbar arrays are needed".
  Rng rng(2);
  Tensor m = Tensor::randn({10, 7}, rng);
  const auto layer = map_matrix(m, "l", small_config());
  EXPECT_EQ(layer.block_grid_rows, 3);  // 4+4+2
  EXPECT_EQ(layer.block_grid_cols, 2);  // 4+3
  EXPECT_EQ(layer.total_blocks(), 6);
  EXPECT_EQ(layer.blocks.back().rows, 2);
  EXPECT_EQ(layer.blocks.back().cols, 3);
}

TEST(Mapping, DemapRoundTripsQuantizedValues) {
  Rng rng(3);
  Tensor m = Tensor::randn({9, 6}, rng);
  const auto layer = map_matrix(m, "l", small_config());
  const Tensor back = layer.demap();
  // Reconstruction within half a quantization step everywhere.
  EXPECT_LT(max_abs_diff(back, m), layer.quant.scale * 0.5F + 1e-6F);
  // And remapping the demapped matrix is exact (quantization idempotent).
  const auto layer2 = map_matrix(back, "l2", small_config());
  for (std::size_t i = 0; i < layer.blocks.size(); ++i)
    EXPECT_EQ(layer.blocks[i].q, layer2.blocks[i].q);
}

TEST(Mapping, ZerosStayExactlyZero) {
  Tensor m = Tensor::zeros({8, 4});
  m.at(3, 2) = 1.0F;
  const auto layer = map_matrix(m, "l", small_config());
  const Tensor back = layer.demap();
  for (std::int64_t i = 0; i < m.numel(); ++i)
    if (m.at(i) == 0.0F) {
      EXPECT_EQ(back.at(i), 0.0F);
    }
}

TEST(Mapping, CensusCountsPerBlockColumn) {
  Tensor m = Tensor::zeros({8, 4});
  // Column 1, top block: 3 non-zeros; bottom block: 1.
  m.at(0, 1) = 1.0F;
  m.at(1, 1) = -1.0F;
  m.at(3, 1) = 0.5F;
  m.at(6, 1) = 2.0F;
  const auto layer = map_matrix(m, "l", small_config());
  EXPECT_EQ(layer.blocks[0].max_col_nonzeros, 3);  // block (0,0)
  EXPECT_EQ(layer.blocks[1].max_col_nonzeros, 1);  // block (1,0)
  EXPECT_EQ(layer.max_active_rows(), 3);
  // Per-column occupancy (consumed by the msim execution plan): column 1
  // carries the census, every other column is empty.
  ASSERT_EQ(layer.blocks[0].col_nonzeros.size(), 4U);
  EXPECT_EQ(layer.blocks[0].column_nonzeros(1), 3);
  EXPECT_EQ(layer.blocks[1].column_nonzeros(1), 1);
  for (std::int64_t c : {0, 2, 3}) {
    EXPECT_EQ(layer.blocks[0].column_nonzeros(c), 0);
    EXPECT_EQ(layer.blocks[1].column_nonzeros(c), 0);
  }
}

TEST(Mapping, RequiredAdcBitsFollowsCensus) {
  Tensor dense = Tensor::ones({4, 4});
  auto cfg = small_config();
  const auto layer = map_matrix(dense, "l", cfg);
  EXPECT_EQ(layer.required_adc_bits(), required_adc_bits(1, 2, 4));

  Tensor sparse = Tensor::zeros({4, 4});
  for (int c = 0; c < 4; ++c) sparse.at(c % 4, c) = 1.0F;
  const auto sl = map_matrix(sparse, "l", cfg);
  EXPECT_EQ(sl.required_adc_bits(), required_adc_bits(1, 2, 1));
}

TEST(Mapping, ArraysPerBlockCountsSlicesAndPolarity) {
  const auto cfg = small_config();  // 8-bit weights, 2-bit cells → 4 slices
  Rng rng(5);
  const auto layer = map_matrix(Tensor::randn({4, 4}, rng), "l", cfg);
  EXPECT_EQ(layer.arrays_per_block(), 8);  // 4 slices × 2 polarities
}

TEST(Mapping, AllZeroBlocksAreInactive) {
  // Diagonal nonzeros: every row/column survives the reform, but the two
  // off-diagonal 4×4 blocks hold only zeros.
  Tensor m = Tensor::zeros({8, 8});
  for (int i = 0; i < 8; ++i) m.at(i, i) = 1.0F;
  const auto layer = map_matrix(m, "l", small_config());
  EXPECT_EQ(layer.total_blocks(), 4);
  EXPECT_EQ(layer.active_blocks(), 2);
  EXPECT_EQ(layer.active_arrays(), 2 * layer.arrays_per_block());
}

TEST(Mapping, ReformCompactsZeroRowsAndColumns) {
  // Paper §III-D: removing whole filters/shapes converts fully into
  // crossbar reductions — the designated zero rows/cols vanish from the
  // tiling when the structural removal is passed to the mapper.
  Rng rng(21);
  Tensor m = Tensor::randn({8, 8}, rng);
  // Zero out 4 columns (one crossbar's worth) and 4 rows.
  for (std::int64_t c : {1, 3, 5, 7})
    for (std::int64_t r = 0; r < 8; ++r) m.at(r, c) = 0.0F;
  for (std::int64_t r : {0, 2, 4, 6})
    for (std::int64_t c = 0; c < 8; ++c) m.at(r, c) = 0.0F;
  const auto removal = infer_removal(m, 4, 4);
  EXPECT_EQ(removal.rows, (std::vector<std::int64_t>{0, 2, 4, 6}));
  EXPECT_EQ(removal.cols, (std::vector<std::int64_t>{1, 3, 5, 7}));
  const auto layer = map_matrix(m, "l", small_config(), removal);
  EXPECT_EQ(layer.kept_rows.size(), 4U);
  EXPECT_EQ(layer.kept_cols.size(), 4U);
  EXPECT_EQ(layer.dense_blocks(), 4);   // 8×8 would need 2×2 blocks
  EXPECT_EQ(layer.total_blocks(), 1);   // compacted 4×4 needs one
  EXPECT_EQ(layer.active_blocks(), 1);
  // Removing a row that still holds weights is rejected.
  StructuralRemoval bad;
  bad.rows = {1};
  EXPECT_THROW(map_matrix(m, "l", small_config(), bad), tinyadc::CheckError);
  // Demap restores original coordinates, zeros included.
  const Tensor back = layer.demap();
  for (std::int64_t c : {1, 3, 5, 7}) EXPECT_EQ(back.at(2, c), 0.0F);
  EXPECT_NEAR(back.at(1, 0), m.at(1, 0), layer.quant.scale * 0.5F + 1e-6F);
  // Reference MVM still speaks original coordinates.
  std::vector<std::int32_t> x(8, 1);
  const auto y = reference_mvm(layer, x);
  EXPECT_EQ(y[1], 0);  // zeroed column
}

TEST(Mapping, NetworkAccountingAndReduction) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);
  auto net = map_model(*model, small_config());
  EXPECT_EQ(net.layers.size(), model->prunable_views().size());
  EXPECT_GT(net.total_arrays(), 0);
  // Dense model: everything active, no reduction.
  EXPECT_EQ(net.active_arrays(), net.total_arrays());
  EXPECT_DOUBLE_EQ(net.crossbar_reduction(), 0.0);

  // Structurally prune half the columns of one mid layer and re-map: the
  // reduction must match the dropped blocks exactly (P4).
  auto views = model->prunable_views();
  auto& v = views[4];
  core::MatrixRef ref{v.weight->value.data(), v.rows, v.cols};
  std::vector<std::int64_t> cols_to_zero;
  for (std::int64_t c = 0; c < 4; ++c) cols_to_zero.push_back(c);
  core::zero_columns(ref, cols_to_zero);
  auto net2 = map_model(*model, small_config());
  EXPECT_LT(net2.active_arrays(), net2.total_arrays());
  EXPECT_GT(net2.crossbar_reduction(), 0.0);
  // Dropped arrays = block_grid_rows of that layer × arrays_per_block
  // (one full block column disappears).
  const auto& l = net2.layers[4];
  EXPECT_EQ(net2.total_arrays() - net2.active_arrays(),
            l.block_grid_rows * l.arrays_per_block());
}

TEST(Mapping, WorstAdcBitsExcludesFirstLayer) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);
  // CP-prune everything except the first conv to 1 non-zero per column.
  auto views = model->prunable_views();
  for (std::size_t i = 1; i < views.size(); ++i) {
    core::MatrixRef ref{views[i].weight->value.data(), views[i].rows,
                        views[i].cols};
    core::project_column_proportional(ref, {4, 4}, 1);
  }
  auto net = map_model(*model, small_config());
  EXPECT_EQ(net.worst_adc_bits_after_first(), required_adc_bits(1, 2, 1));
  // The first (dense) layer itself still needs the dense resolution.
  EXPECT_EQ(net.layers[0].required_adc_bits(),
            required_adc_bits(1, 2, net.layers[0].max_active_rows()));
}

TEST(ReferenceMvm, MatchesDenseDotProduct) {
  Rng rng(6);
  Tensor m = Tensor::randn({6, 5}, rng);
  const auto layer = map_matrix(m, "l", small_config());
  std::vector<std::int32_t> x = {1, 0, 3, 2, 5, 7};
  const auto y = reference_mvm(layer, x);
  for (std::int64_t c = 0; c < 5; ++c) {
    std::int64_t expect = 0;
    for (std::int64_t r = 0; r < 6; ++r) {
      // Recover the quantized code from the blocks to compare.
      const auto& b = layer.blocks[static_cast<std::size_t>(
          (r / 4) * layer.block_grid_cols + (c / 4))];
      expect += static_cast<std::int64_t>(b.at(r % 4, c % 4)) *
                x[static_cast<std::size_t>(r)];
    }
    EXPECT_EQ(y[static_cast<std::size_t>(c)], expect);
  }
}

TEST(ReferenceMvm, ValidatesInputLength) {
  Rng rng(7);
  const auto layer = map_matrix(Tensor::randn({4, 4}, rng), "l",
                                small_config());
  std::vector<std::int32_t> x(3, 1);
  EXPECT_THROW(reference_mvm(layer, x), tinyadc::CheckError);
}

}  // namespace
}  // namespace tinyadc::xbar
