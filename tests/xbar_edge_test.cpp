// Crossbar-mapping edge cases and the selections-based map_model overload.
#include <gtest/gtest.h>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::xbar {
namespace {

MappingConfig cfg4() {
  MappingConfig cfg;
  cfg.dims = {4, 4};
  return cfg;
}

TEST(MappingEdge, SingleElementMatrix) {
  Tensor m({1, 1}, {0.5F});
  const auto layer = map_matrix(m, "l", cfg4());
  EXPECT_EQ(layer.total_blocks(), 1);
  EXPECT_EQ(layer.blocks[0].rows, 1);
  EXPECT_EQ(layer.blocks[0].cols, 1);
  EXPECT_EQ(layer.max_active_rows(), 1);
  std::vector<std::int32_t> x{3};
  EXPECT_EQ(reference_mvm(layer, x).size(), 1U);
}

TEST(MappingEdge, FullyRemovedColumnsLeaveEmptyMapping) {
  Tensor m = Tensor::zeros({4, 4});
  StructuralRemoval removal;
  removal.cols = {0, 1, 2, 3};
  const auto layer = map_matrix(m, "l", cfg4(), removal);
  EXPECT_TRUE(layer.kept_cols.empty());
  EXPECT_EQ(layer.total_blocks(), 0);
  EXPECT_EQ(layer.active_arrays(), 0);
  EXPECT_EQ(layer.required_adc_bits(), 0);
  // Demap yields the all-zero logical matrix; reference MVM is all zero.
  EXPECT_EQ(count_nonzero(layer.demap()), 0);
  std::vector<std::int32_t> x(4, 7);
  for (auto v : reference_mvm(layer, x)) EXPECT_EQ(v, 0);
}

TEST(MappingEdge, AllZeroMatrixNeedsNoAdc) {
  const auto layer = map_matrix(Tensor::zeros({8, 8}), "l", cfg4());
  EXPECT_EQ(layer.max_active_rows(), 0);
  EXPECT_EQ(layer.required_adc_bits(), 0);
  EXPECT_EQ(layer.design_adc_bits(), 0);
  EXPECT_EQ(layer.active_blocks(), 0);
}

TEST(MappingEdge, ExtremeDynamicRangeQuantizesSmallWeightsToZero) {
  // One huge weight sets the scale; 0.01-magnitude weights fall below half
  // an LSB, quantize to code 0 and deactivate their rows — quantization-
  // induced pruning the census must reflect.
  Tensor m = Tensor::full({4, 4}, 0.01F);
  m.at(0, 0) = 100.0F;
  const auto layer = map_matrix(m, "l", cfg4());
  EXPECT_EQ(layer.max_active_rows(), 1);
  // With a balanced range every weight stays live.
  Tensor balanced = Tensor::full({4, 4}, 0.5F);
  balanced.at(0, 0) = 1.0F;
  EXPECT_EQ(map_matrix(balanced, "l", cfg4()).max_active_rows(), 4);
}

TEST(MapModelSelections, MatchesPipelineReform) {
  // Combined pipeline → selections → map; the mapper must compact exactly
  // the selected structures and the census must honor the CP budget.
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_size = 8;
  dspec.train_per_class = 12;
  dspec.test_per_class = 4;
  dspec.seed = 17;
  const auto data = data::make_synthetic(dspec);
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);

  core::PipelineConfig pcfg;
  pcfg.xbar = {4, 4};
  pcfg.pretrain.epochs = 2;
  pcfg.pretrain.batch_size = 16;
  pcfg.admm.epochs = 2;
  pcfg.admm.batch_size = 16;
  pcfg.retrain.epochs = 2;
  pcfg.retrain.batch_size = 16;
  auto specs = core::uniform_cp_specs(*model, 2, pcfg.xbar);
  core::add_structured(specs, *model, 0.3, 0.3, pcfg.xbar);
  const auto result =
      core::run_pipeline(*model, data.train, data.test, specs, pcfg);
  ASSERT_EQ(result.selections.size(), specs.size());

  MappingConfig map_cfg;
  map_cfg.dims = {4, 4};
  const auto net = map_model(*model, map_cfg, result.selections);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const auto& layer = net.layers[i];
    if (!specs[i].active()) continue;
    // Compaction matches the recorded selection sizes.
    EXPECT_EQ(static_cast<std::int64_t>(layer.kept_rows.size()),
              layer.rows - specs[i].remove_shapes)
        << layer.name;
    EXPECT_EQ(static_cast<std::int64_t>(layer.kept_cols.size()),
              layer.cols - specs[i].remove_filters)
        << layer.name;
    // CP budget holds on the reformed tiling.
    if (specs[i].cp_keep > 0) {
      EXPECT_LE(layer.max_active_rows(), specs[i].cp_keep) << layer.name;
    }
  }
  // Selections-based mapping never reports less reduction than spec-based
  // inference (they agree when no CP zeros confuse the inference).
  const auto inferred = map_model(*model, map_cfg, specs);
  EXPECT_EQ(net.total_arrays(), inferred.total_arrays());
}

TEST(MapModelSelections, CountMismatchRejected) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);
  std::vector<core::StructuralSelection> too_few(3);
  EXPECT_THROW(map_model(*model, cfg4(), too_few), tinyadc::CheckError);
}

}  // namespace
}  // namespace tinyadc::xbar
