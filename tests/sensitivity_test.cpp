// Extension tests: sensitivity-scanned per-layer CP rates (non-uniform
// pruning, beyond the paper's uniform-rate protocol).
#include <gtest/gtest.h>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::core {
namespace {

struct Fixture {
  std::unique_ptr<nn::Model> model;
  data::DatasetPair data;

  Fixture() {
    nn::ModelConfig mc;
    mc.num_classes = 4;
    mc.image_size = 8;
    mc.width_mult = 0.0625F;
    model = nn::resnet18(mc);

    data::SyntheticSpec spec;
    spec.num_classes = 4;
    spec.image_size = 8;
    spec.train_per_class = 20;
    spec.test_per_class = 10;
    spec.seed = 61;
    data = data::make_synthetic(spec);

    nn::TrainConfig tc;
    tc.epochs = 8;
    tc.batch_size = 16;
    tc.sgd.lr = 0.05F;
    tc.sgd.total_epochs = 8;
    nn::Trainer trainer(*model, tc);
    trainer.fit(data.train, data.test);
  }
};

TEST(Sensitivity, LeavesModelWeightsUntouched) {
  Fixture f;
  std::vector<Tensor> before;
  for (const auto& v : f.model->prunable_views())
    before.push_back(v.weight->value.clone());
  sensitivity_cp_specs(*f.model, f.data.test, {8, 8}, {2, 4, 8}, 0.05);
  auto views = f.model->prunable_views();
  for (std::size_t i = 0; i < views.size(); ++i)
    EXPECT_TRUE(allclose(views[i].weight->value, before[i], 0.0F));
}

TEST(Sensitivity, SpecLayoutMatchesViews) {
  Fixture f;
  const auto specs =
      sensitivity_cp_specs(*f.model, f.data.test, {8, 8}, {2, 4}, 0.05);
  EXPECT_EQ(specs.size(), f.model->prunable_views().size());
  EXPECT_FALSE(specs.front().enabled);  // first conv skipped
}

TEST(Sensitivity, ZeroToleranceMeansConservativeRates) {
  // With a huge tolerance every layer takes the max rate; with a negative
  // -like zero tolerance layers only keep rates that cost literally
  // nothing. The strict specs can never be more aggressive than the loose
  // ones.
  Fixture f;
  const auto strict =
      sensitivity_cp_specs(*f.model, f.data.test, {8, 8}, {2, 4, 8}, 0.0);
  const auto loose =
      sensitivity_cp_specs(*f.model, f.data.test, {8, 8}, {2, 4, 8}, 1.0);
  for (std::size_t i = 0; i < strict.size(); ++i) {
    if (!strict[i].enabled) continue;
    // Larger keep = milder pruning. keep==0 means "no constraint chosen".
    ASSERT_EQ(loose[i].cp_keep, 1);  // tolerance 1.0 accepts the 8x rate
    if (strict[i].cp_keep != 0) {
      EXPECT_GE(strict[i].cp_keep, loose[i].cp_keep);
    }
  }
}

TEST(Sensitivity, PipelineRunsOnSensitivitySpecs) {
  Fixture f;
  auto specs =
      sensitivity_cp_specs(*f.model, f.data.test, {8, 8}, {2, 4, 8}, 0.1);
  PipelineConfig cfg;
  cfg.xbar = {8, 8};
  cfg.pretrain.epochs = 0;
  cfg.admm.epochs = 5;
  cfg.admm.batch_size = 16;
  cfg.admm.sgd.lr = 0.02F;
  cfg.retrain.epochs = 5;
  cfg.retrain.batch_size = 16;
  cfg.retrain.sgd.lr = 0.01F;
  const auto result =
      run_pipeline(*f.model, f.data.train, f.data.test, specs, cfg);
  // Sensitivity specs bounded each layer's immediate damage at 10pp, so
  // after ADMM + retraining the model must stay comfortably above chance
  // (0.25 for 4 classes).
  EXPECT_GT(result.final_accuracy, 0.45);
  auto views = f.model->prunable_views();
  for (std::size_t i = 0; i < views.size(); ++i) {
    ConstMatrixRef m{views[i].weight->value.data(), views[i].rows,
                     views[i].cols};
    EXPECT_TRUE(satisfies_combined(m, specs[i], {8, 8}));
  }
}

TEST(Sensitivity, ValidatesArguments) {
  Fixture f;
  EXPECT_THROW(sensitivity_cp_specs(*f.model, f.data.test, {8, 8}, {}, 0.1),
               CheckError);
  EXPECT_THROW(
      sensitivity_cp_specs(*f.model, f.data.test, {8, 8}, {2}, -0.1),
      CheckError);
}

}  // namespace
}  // namespace tinyadc::core
