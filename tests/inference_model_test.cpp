// Per-inference energy/latency model: workload accounting, monotonicity
// with pruning, and component breakdown consistency.
#include <gtest/gtest.h>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "hw/inference_model.hpp"
#include "msim/analog_network.hpp"
#include "nn/models.hpp"

namespace tinyadc::hw {
namespace {

std::unique_ptr<nn::Model> tiny_model() {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  return nn::resnet18(mc);
}

xbar::MappingConfig map_cfg() {
  xbar::MappingConfig cfg;
  cfg.dims = {16, 16};
  return cfg;
}

TEST(MvmsPerInference, CountsConvPixelsAndFcOnce) {
  auto model = tiny_model();
  const auto mvms = mvms_per_inference(*model, {3, 8, 8});
  ASSERT_EQ(mvms.size(), model->prunable_views().size());
  // Stem conv: stride 1 pad 1 on 8x8 → 64 output pixels.
  EXPECT_EQ(mvms.front(), 64);
  // FC head: one MVM per image.
  EXPECT_EQ(mvms.back(), 1);
  // Downsampled stages shrink: layer4 convs see 1x1 spatial.
  EXPECT_EQ(mvms[mvms.size() - 2], 1);
}

TEST(MvmsPerInference, LeavesAttachedAnalogCountersUntouched) {
  auto model = tiny_model();
  const auto net = xbar::map_model(*model, map_cfg());
  msim::AnalogNetwork analog(*model, net, msim::MsimConfig{});
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_size = 8;
  spec.train_per_class = 2;
  spec.test_per_class = 1;
  analog.calibrate(data::make_synthetic(spec).train, 8);
  // A served forward, so the snapshot is of counters that already moved.
  (void)analog.forward(Tensor({1, 3, 8, 8}));

  std::vector<msim::MsimStats> before;
  for (const auto& sim : analog.sims()) before.push_back(sim->stats_snapshot());
  const auto mvms = mvms_per_inference(*model, {3, 8, 8});
  for (std::size_t i = 0; i < before.size(); ++i) {
    const msim::MsimStats after = analog.sims()[i]->stats_snapshot();
    EXPECT_EQ(after.adc_conversions, before[i].adc_conversions) << "layer " << i;
    EXPECT_EQ(after.adc_clip_events, before[i].adc_clip_events) << "layer " << i;
    EXPECT_EQ(after.dac_cycles, before[i].dac_cycles) << "layer " << i;
  }
  EXPECT_EQ(mvms, mvms_per_inference(*tiny_model(), {3, 8, 8}));
}

TEST(MvmsPerInference, ValidatesShape) {
  auto model = tiny_model();
  EXPECT_THROW(mvms_per_inference(*model, {3, 8}), CheckError);
}

TEST(EstimateInference, ComponentsSumToTotal) {
  auto model = tiny_model();
  const auto mvms = mvms_per_inference(*model, {3, 8, 8});
  const auto net = xbar::map_model(*model, map_cfg());
  const CostConstants constants;
  const auto cost = estimate_inference(net, mvms, constants);
  EXPECT_GT(cost.latency_s, 0.0);
  EXPECT_GT(cost.energy_j, 0.0);
  EXPECT_NEAR(cost.adc_energy_j + cost.array_energy_j + cost.dac_energy_j +
                  cost.digital_energy_j,
              cost.energy_j, 1e-12);
  double layer_latency = 0.0, layer_energy = 0.0;
  for (const auto& l : cost.layers) {
    layer_latency += l.latency_s;
    layer_energy += l.energy_j;
    EXPECT_GE(l.adc_conversions, 0);
  }
  EXPECT_NEAR(layer_latency, cost.latency_s, 1e-12);
  EXPECT_NEAR(layer_energy, cost.energy_j, 1e-9);
  EXPECT_GT(cost.fps(), 0.0);
  EXPECT_GT(cost.images_per_joule(), 0.0);
}

TEST(EstimateInference, CpPruningCutsEnergy) {
  auto dense = tiny_model();
  const auto mvms = mvms_per_inference(*dense, {3, 8, 8});
  const auto dense_net = xbar::map_model(*dense, map_cfg());
  const CostConstants constants;
  const auto dense_cost = estimate_inference(dense_net, mvms, constants);

  auto pruned = tiny_model();
  auto views = pruned->prunable_views();
  for (std::size_t i = 1; i < views.size(); ++i) {
    core::MatrixRef ref{views[i].weight->value.data(), views[i].rows,
                        views[i].cols};
    core::project_column_proportional(ref, {16, 16}, 2);
  }
  const auto pruned_net = xbar::map_model(*pruned, map_cfg());
  const auto pruned_cost = estimate_inference(pruned_net, mvms, constants);
  // Same MVM counts, but smaller ADCs everywhere after layer 0.
  EXPECT_LT(pruned_cost.energy_j, dense_cost.energy_j);
  EXPECT_LT(pruned_cost.adc_energy_j, dense_cost.adc_energy_j);
  // Latency is ADC-rate-bound per column, unchanged by resolution here.
  EXPECT_NEAR(pruned_cost.latency_s, dense_cost.latency_s, 1e-12);
}

TEST(EstimateInference, StructuredPruningCutsLatencyViaNarrowerBlocks) {
  auto model = tiny_model();
  const auto mvms = mvms_per_inference(*model, {3, 8, 8});
  // Remove one crossbar's worth of filters from a wide layer.
  auto specs = core::uniform_cp_specs(*model, 1, {16, 16});
  core::add_structured(specs, *model, 0.6, 0.0, {16, 16});
  auto views = model->prunable_views();
  bool any_removed = false;
  for (std::size_t i = 0; i < views.size(); ++i) {
    core::MatrixRef ref{views[i].weight->value.data(), views[i].rows,
                        views[i].cols};
    core::project_combined(ref, specs[i], {16, 16});
    any_removed |= specs[i].remove_filters > 0;
  }
  ASSERT_TRUE(any_removed);
  const auto net = xbar::map_model(*model, map_cfg(), specs);
  const CostConstants constants;
  const auto cost = estimate_inference(net, mvms, constants);

  auto dense = tiny_model();
  const auto dense_net = xbar::map_model(*dense, map_cfg());
  const auto dense_cost = estimate_inference(dense_net, mvms, constants);
  EXPECT_LT(cost.energy_j, dense_cost.energy_j);
}

TEST(EstimateInference, ValidatesAlignment) {
  auto model = tiny_model();
  const auto net = xbar::map_model(*model, map_cfg());
  const CostConstants constants;
  std::vector<std::int64_t> wrong(3, 1);
  EXPECT_THROW(estimate_inference(net, wrong, constants), CheckError);
}

}  // namespace
}  // namespace tinyadc::hw
