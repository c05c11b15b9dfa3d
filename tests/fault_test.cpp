// Stuck-at fault model (§IV-E): injection mechanics, SA0 immunity of pruned
// cells, damage monotonicity, and the pruned-vs-dense robustness gap.
#include <gtest/gtest.h>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "fault/evaluate.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::fault {
namespace {

xbar::MappingConfig map_config() {
  xbar::MappingConfig cfg;
  cfg.dims = {4, 4};
  return cfg;
}

xbar::MappedLayer mapped_from(const Tensor& m) {
  return xbar::map_matrix(m, "l", map_config());
}

TEST(FaultInjection, RateZeroChangesNothing) {
  tinyadc::Rng gen(1);
  Tensor m = Tensor::randn({8, 8}, gen);
  auto layer = mapped_from(m);
  const auto original = layer.blocks;
  FaultSpec spec;
  spec.rate = 0.0;
  tinyadc::Rng rng(2);
  const auto stats = inject_faults(layer, spec, rng);
  EXPECT_EQ(stats.sa0 + stats.sa1, 0);
  EXPECT_EQ(stats.weights_changed, 0);
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(layer.blocks[i].q, original[i].q);
}

TEST(FaultInjection, CountsCellsPerWeight) {
  Tensor m = Tensor::ones({4, 4});
  auto layer = mapped_from(m);
  FaultSpec spec;
  spec.rate = 0.0;
  tinyadc::Rng rng(3);
  const auto stats = inject_faults(layer, spec, rng);
  // 16 weights × 4 slices × 2 polarities = 128 cells.
  EXPECT_EQ(stats.cells, 128);
}

TEST(FaultInjection, Sa0CannotHurtZeroWeights) {
  // An all-zero (fully pruned) layer is immune to SA0 — its cells already
  // sit at G_off. This is the mechanism behind TinyADC's fault tolerance.
  auto layer = mapped_from(Tensor::zeros({8, 8}));
  FaultSpec spec;
  spec.rate = 1.0;       // every cell faulted
  spec.sa0_fraction = 1.0;  // all SA0
  tinyadc::Rng rng(4);
  const auto stats = inject_faults(layer, spec, rng);
  EXPECT_GT(stats.sa0, 0);
  EXPECT_EQ(stats.weights_changed, 0);
}

TEST(FaultInjection, Sa1CorruptsEvenZeroWeights) {
  auto layer = mapped_from(Tensor::zeros({4, 4}));
  FaultSpec spec;
  spec.rate = 0.5;  // asymmetric hits: polarity planes won't cancel
  spec.sa0_fraction = 0.0;  // all SA1
  tinyadc::Rng rng(5);
  const auto stats = inject_faults(layer, spec, rng);
  EXPECT_GT(stats.sa1, 0);
  EXPECT_GT(stats.weights_changed, 0);
}

TEST(FaultInjection, FullSymmetricSa1CancelsDifferentially) {
  // rate = 1 SA1 faults hit both polarity planes of every weight with the
  // full level, so the differential readout cancels to zero net change —
  // a sanity check of the differential cell model.
  auto layer = mapped_from(Tensor::zeros({4, 4}));
  FaultSpec spec;
  spec.rate = 1.0;
  spec.sa0_fraction = 0.0;
  tinyadc::Rng rng(55);
  const auto stats = inject_faults(layer, spec, rng);
  EXPECT_GT(stats.sa1, 0);
  EXPECT_EQ(stats.weights_changed, 0);
}

TEST(FaultInjection, FullSa0WipesEverything) {
  tinyadc::Rng gen(6);
  Tensor m = Tensor::randn({8, 4}, gen);
  auto layer = mapped_from(m);
  FaultSpec spec;
  spec.rate = 1.0;
  spec.sa0_fraction = 1.0;
  tinyadc::Rng rng(7);
  inject_faults(layer, spec, rng);
  for (const auto& b : layer.blocks)
    for (auto q : b.q) EXPECT_EQ(q, 0);
  EXPECT_EQ(layer.max_active_rows(), 0);
}

TEST(FaultInjection, CensusRefreshedAfterInjection) {
  Tensor m = Tensor::ones({4, 4});
  auto layer = mapped_from(m);
  EXPECT_EQ(layer.max_active_rows(), 4);
  FaultSpec spec;
  spec.rate = 1.0;
  spec.sa0_fraction = 1.0;
  tinyadc::Rng rng(8);
  inject_faults(layer, spec, rng);
  EXPECT_EQ(layer.max_active_rows(), 0);
}

TEST(FaultInjection, DamageGrowsWithRate) {
  tinyadc::Rng gen(9);
  Tensor m = Tensor::randn({16, 16}, gen);
  std::int64_t prev_changed = -1;
  for (double rate : {0.02, 0.10, 0.40}) {
    auto layer = mapped_from(m);
    FaultSpec spec;
    spec.rate = rate;
    tinyadc::Rng rng(10);
    const auto stats = inject_faults(layer, spec, rng);
    EXPECT_GT(stats.weights_changed, prev_changed);
    prev_changed = stats.weights_changed;
  }
}

TEST(FaultInjection, NetworkInjectionAggregates) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);
  auto net = xbar::map_model(*model, map_config());
  FaultSpec spec;
  spec.rate = 0.05;
  const auto stats = inject_faults(net, spec);
  EXPECT_GT(stats.cells, 0);
  EXPECT_GT(stats.sa0, 0);
  // ~5 % of cells hit.
  EXPECT_NEAR(static_cast<double>(stats.sa0) / stats.cells, 0.05, 0.01);
}

TEST(FaultInjection, DeterministicInSeed) {
  tinyadc::Rng gen(11);
  Tensor m = Tensor::randn({8, 8}, gen);
  auto a = mapped_from(m);
  auto b = mapped_from(m);
  FaultSpec spec;
  spec.rate = 0.2;
  tinyadc::Rng r1(12), r2(12);
  inject_faults(a, spec, r1);
  inject_faults(b, spec, r2);
  for (std::size_t i = 0; i < a.blocks.size(); ++i)
    EXPECT_EQ(a.blocks[i].q, b.blocks[i].q);
}

TEST(FaultEvaluate, PrunedModelToleratesSa0BetterThanDense) {
  // The §IV-E experiment in miniature: train one model, evaluate accuracy
  // under SA0 faults for (a) its dense form and (b) its CP-pruned form.
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_size = 8;
  dspec.train_per_class = 20;
  dspec.test_per_class = 10;
  dspec.seed = 21;
  const auto data = data::make_synthetic(dspec);

  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);

  core::PipelineConfig pcfg;
  pcfg.xbar = {4, 4};
  pcfg.pretrain.epochs = 12;
  pcfg.pretrain.batch_size = 16;
  pcfg.pretrain.sgd.lr = 0.05F;
  pcfg.pretrain.sgd.total_epochs = 12;
  pcfg.admm.epochs = 3;
  pcfg.admm.batch_size = 16;
  pcfg.admm.sgd.lr = 0.02F;
  pcfg.retrain.epochs = 3;
  pcfg.retrain.batch_size = 16;
  pcfg.retrain.sgd.lr = 0.01F;

  // Dense twin: pretrain only.
  auto dense = nn::resnet18(mc);
  {
    nn::TrainConfig tc = pcfg.pretrain;
    nn::Trainer trainer(*dense, tc);
    trainer.fit(data.train, data.test);
  }
  // Pruned model via the pipeline.
  auto specs = core::uniform_cp_specs(*model, 4, pcfg.xbar);
  core::run_pipeline(*model, data.train, data.test, specs, pcfg);

  FaultSpec fspec;
  fspec.rate = 0.15;
  fspec.sa0_fraction = 1.0;
  const auto dense_res =
      evaluate_under_faults(*dense, data.test, map_config(), fspec, 3);
  const auto pruned_res =
      evaluate_under_faults(*model, data.test, map_config(), fspec, 3);
  // Both models must actually work clean, or the comparison says nothing.
  EXPECT_GT(dense_res.clean_accuracy, 0.5);
  EXPECT_GT(pruned_res.clean_accuracy, 0.5);
  // The pruned model's drop must not exceed the dense model's (it holds
  // far fewer SA0-vulnerable cells). The margin is statistical — 3 trials
  // on a tiny model. Every build computes the same floats (no FMA
  // contraction, DESIGN.md §7), so one margin holds on all of them.
  EXPECT_LE(pruned_res.accuracy_drop(), dense_res.accuracy_drop() + 0.05);
}

TEST(FaultEvaluate, RemappingNeverHurtsOnAverage) {
  // Fault-aware wordline remapping minimizes per-trial code damage, so the
  // mean accuracy under the same defect patterns must not get worse.
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_size = 8;
  dspec.train_per_class = 16;
  dspec.test_per_class = 8;
  dspec.seed = 23;
  const auto data = data::make_synthetic(dspec);
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);
  {
    nn::TrainConfig tc;
    tc.epochs = 8;
    tc.batch_size = 16;
    tc.sgd.lr = 0.05F;
    tc.sgd.total_epochs = 8;
    nn::Trainer trainer(*model, tc);
    trainer.fit(data.train, data.test);
  }
  FaultSpec fspec;
  fspec.rate = 0.10;
  fspec.sa0_fraction = 1.0;
  const auto plain =
      evaluate_under_faults(*model, data.test, map_config(), fspec, 3);
  const auto remapped = evaluate_under_faults_remapped(
      *model, data.test, map_config(), fspec, 3);
  EXPECT_DOUBLE_EQ(plain.clean_accuracy, remapped.clean_accuracy);
  EXPECT_GE(remapped.mean_accuracy + 1e-9, plain.mean_accuracy - 0.05);
}

TEST(FaultEvaluate, RestoresWeightsExactly) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);
  std::vector<Tensor> before;
  for (const auto& v : model->prunable_views())
    before.push_back(v.weight->value.clone());

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_size = 8;
  dspec.train_per_class = 4;
  dspec.test_per_class = 4;
  const auto data = data::make_synthetic(dspec);
  FaultSpec fspec;
  fspec.rate = 0.3;
  evaluate_under_faults(*model, data.test, map_config(), fspec, 2);

  auto views = model->prunable_views();
  for (std::size_t i = 0; i < views.size(); ++i)
    EXPECT_TRUE(allclose(views[i].weight->value, before[i], 0.0F));
}

TEST(FaultEvaluate, ValidatesTrialCount) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  auto model = nn::resnet18(mc);
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_size = 8;
  dspec.train_per_class = 2;
  dspec.test_per_class = 2;
  const auto data = data::make_synthetic(dspec);
  EXPECT_THROW(
      evaluate_under_faults(*model, data.test, map_config(), {}, 0),
      tinyadc::CheckError);
}

}  // namespace
}  // namespace tinyadc::fault
