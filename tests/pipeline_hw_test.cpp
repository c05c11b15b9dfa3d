// ISAAC-style pipeline scheduling: stage timing, bottleneck/interval math,
// replication balancing, buffer accounting.
#include <gtest/gtest.h>

#include "hw/pipeline.hpp"
#include "nn/models.hpp"

namespace tinyadc::hw {
namespace {

struct Harness {
  std::unique_ptr<nn::Model> model;
  xbar::MappedNetwork net;
  std::vector<std::int64_t> mvms;
  CostConstants constants;

  Harness() {
    nn::ModelConfig mc;
    mc.num_classes = 4;
    mc.image_size = 8;
    mc.width_mult = 0.0625F;
    model = nn::resnet18(mc);
    xbar::MappingConfig cfg;
    cfg.dims = {16, 16};
    net = xbar::map_model(*model, cfg);
    mvms = mvms_per_inference(*model, {3, 8, 8});
  }
};

TEST(Pipeline, IntervalIsSlowestStage) {
  Harness s;
  const auto schedule = schedule_pipeline(s.net, s.mvms, s.constants);
  ASSERT_EQ(schedule.stages.size(), s.net.layers.size());
  double worst = 0.0;
  for (const auto& st : schedule.stages)
    worst = std::max(worst, st.effective_time_s);
  EXPECT_DOUBLE_EQ(schedule.interval_s, worst);
  EXPECT_GT(schedule.fps(), 0.0);
}

TEST(Pipeline, FillLatencyIsSumOfStages) {
  Harness s;
  const auto schedule = schedule_pipeline(s.net, s.mvms, s.constants);
  double sum = 0.0;
  for (const auto& st : schedule.stages) sum += st.effective_time_s;
  EXPECT_NEAR(schedule.fill_latency_s, sum, 1e-15);
  // Pipelining wins over serial execution whenever there are ≥2 stages.
  EXPECT_LT(schedule.interval_s, schedule.fill_latency_s);
}

TEST(Pipeline, EarlyLayersDominateUnbalanced) {
  // The stem conv runs 64 MVMs while layer4 runs 1 — the early stage must
  // be the bottleneck, exactly ISAAC's motivation for replication.
  Harness s;
  const auto schedule = schedule_pipeline(s.net, s.mvms, s.constants);
  const auto& stem = schedule.stages.front();
  EXPECT_DOUBLE_EQ(schedule.interval_s, stem.effective_time_s);
}

TEST(Pipeline, BalancingHitsTargetInterval) {
  Harness s;
  const auto base = schedule_pipeline(s.net, s.mvms, s.constants);
  const double target = base.interval_s / 4.0;
  const auto balanced = balance_pipeline(s.net, s.mvms, s.constants, target);
  EXPECT_LE(balanced.interval_s, target * (1.0 + 1e-9));
  EXPECT_GT(balanced.extra_arrays, 0);
  // Replication is minimal: no stage is replicated beyond what its own
  // stage time requires.
  for (const auto& st : balanced.stages) {
    if (st.replication > 1) {
      EXPECT_GT(st.stage_time_s / (st.replication - 1), target);
    }
  }
}

TEST(Pipeline, BalancingToOwnIntervalIsFree) {
  Harness s;
  const auto base = schedule_pipeline(s.net, s.mvms, s.constants);
  const auto same =
      balance_pipeline(s.net, s.mvms, s.constants, base.interval_s * 1.001);
  EXPECT_EQ(same.extra_arrays, 0);
}

TEST(Pipeline, BufferBytesMatchActivationVolume) {
  Harness s;
  const auto schedule = schedule_pipeline(s.net, s.mvms, s.constants);
  // Stem conv: 64 MVMs × cols output activations × 8 bits.
  const auto& stem_layer = s.net.layers.front();
  EXPECT_EQ(schedule.stages.front().buffer_bytes,
            (64 * stem_layer.cols * 8 + 7) / 8);
}

TEST(Pipeline, TableRenders) {
  Harness s;
  const auto schedule = schedule_pipeline(s.net, s.mvms, s.constants);
  const std::string table = to_table(schedule);
  EXPECT_NE(table.find("stem.conv"), std::string::npos);
  EXPECT_NE(table.find("interval"), std::string::npos);
}

TEST(Pipeline, ValidatesInputs) {
  Harness s;
  std::vector<std::int64_t> wrong(2, 1);
  EXPECT_THROW(schedule_pipeline(s.net, wrong, s.constants), CheckError);
  EXPECT_THROW(balance_pipeline(s.net, s.mvms, s.constants, 0.0), CheckError);
}

}  // namespace
}  // namespace tinyadc::hw
