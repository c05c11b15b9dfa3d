// Whole-network analog inference: hook mechanics, calibration, end-to-end
// accuracy of the simulated chip vs the float model, variation effects.
#include <gtest/gtest.h>

#include <cstring>

#include "conv_per_sample.hpp"
#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "msim/analog_network.hpp"
#include "nn/models.hpp"
#include "nn/trainer.hpp"
#include "runtime/parallel.hpp"
#include "tensor/im2col.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::msim {
namespace {

struct Fixture {
  std::unique_ptr<nn::Model> model;
  data::DatasetPair data;
  double float_accuracy = 0.0;

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
    spec.test_per_class = 6;
    spec.noise = 0.15F;
    spec.seed = 71;
    data = data::make_synthetic(spec);

    nn::TrainConfig tc;
    tc.epochs = 10;
    tc.batch_size = 16;
    tc.sgd.lr = 0.05F;
    tc.sgd.total_epochs = 10;
    nn::Trainer trainer(*model, tc);
    trainer.fit(data.train, data.test);
    float_accuracy = trainer.evaluate(data.test);
  }
};

xbar::MappingConfig small_map() {
  xbar::MappingConfig cfg;
  cfg.dims = {16, 16};
  return cfg;
}

TEST(MvmHook, NullOptFallsBackToFloatPath) {
  Rng rng(1);
  nn::Conv2d conv("c", 2, 3, 3, 1, 1, false, rng);
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  const Tensor expected = conv.forward(x, false);
  int calls = 0;
  conv.set_mvm_hook([&calls](const Tensor&) -> std::optional<Tensor> {
    ++calls;
    return std::nullopt;
  });
  const Tensor got = conv.forward(x, false);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(allclose(got, expected, 0.0F));
}

/// A hooked conv offers the whole batch in one call: a patch_rows × N·p
/// matrix whose column block n is sample n's im2col lowering, and the
/// hook's (out_channels × N·p) result is scattered back per sample.
TEST(MvmHook, ConvHookSeesWholeBatchOnce) {
  Rng rng(4);
  nn::Conv2d conv("c", 3, 5, 3, 2, 1, true, rng);
  conv.bias().value.fill(0.25F);
  const Tensor x = Tensor::randn({3, 3, 6, 6}, rng);
  const ConvGeometry g{3, 6, 6, 3, 3, 2, 1};
  const std::int64_t p = g.patch_cols();
  int calls = 0;
  conv.set_mvm_hook([&](const Tensor& cols) -> std::optional<Tensor> {
    ++calls;
    EXPECT_EQ(cols.shape(), (Shape{g.patch_rows(), 3 * p}));
    for (std::int64_t n = 0; n < 3; ++n) {
      Tensor image({3, 6, 6});
      std::copy(x.data() + n * 108, x.data() + (n + 1) * 108, image.data());
      const Tensor want = im2col(image, g);
      for (std::int64_t r = 0; r < g.patch_rows(); ++r)
        for (std::int64_t i = 0; i < p; ++i)
          EXPECT_EQ(cols.at(r, n * p + i), want.at(r, i));
    }
    // Tag each output (f, column j) with f·1000 + j.
    Tensor out({5, cols.dim(1)});
    for (std::int64_t f = 0; f < 5; ++f)
      for (std::int64_t j = 0; j < cols.dim(1); ++j)
        out.at(f, j) = static_cast<float>(f * 1000 + j);
    return out;
  });
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(y.shape(), (Shape{3, 5, g.out_h(), g.out_w()}));
  for (std::int64_t n = 0; n < 3; ++n)
    for (std::int64_t f = 0; f < 5; ++f)
      for (std::int64_t i = 0; i < p; ++i)
        EXPECT_EQ(y.data()[(n * 5 + f) * p + i],
                  static_cast<float>(f * 1000 + n * p + i) + 0.25F);
}

/// A declining hook and the unhooked forward yield exactly the per-sample
/// output (batch-1 forwards of each sample) on a shape with k = 144 > 64
/// taps and p = 16 < 32 pixels: several k blocks, and every per-sample
/// column an edge column while the batch fills a 32-wide tile.
TEST(MvmHook, DecliningConvHookGivesReferenceOutput) {
  Rng rng(5);
  nn::Conv2d conv("c", 16, 8, 3, 1, 1, false, rng);
  const Tensor x = Tensor::randn({3, 16, 4, 4}, rng);
  const Tensor reference = test::per_sample_forward(conv, x, false);
  const auto nbytes =
      static_cast<std::size_t>(reference.numel()) * sizeof(float);
  const Tensor batched = conv.forward(x, false);
  EXPECT_EQ(std::memcmp(batched.data(), reference.data(), nbytes), 0);
  int calls = 0;
  conv.set_mvm_hook([&calls](const Tensor&) -> std::optional<Tensor> {
    ++calls;
    return std::nullopt;
  });
  const Tensor got = conv.forward(x, false);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(std::memcmp(got.data(), reference.data(), nbytes), 0);
}

/// A conv's whole-batch forwards equal its per-sample batch-1 forwards bit
/// for bit: the hooked forward whose hook declines, the unhooked eval
/// forward and the training forward, on every shape class: p =
/// out_h·out_w from 1 to 80 (all-edge narrow samples, exactly one 32-wide
/// tile, tiles plus edge columns), k = C·K·K on both sides of the 64-deep
/// k block, m % 4 edge rows (out channels 3, 5, 8), with and without bias,
/// at several batch sizes and thread counts.
TEST(MvmHook, DecliningConvHookMatchesReferenceOnShapeGrid) {
  // (out_h, out_w): p = 1 … 80.
  const std::pair<std::int64_t, std::int64_t> outs[] = {
      {1, 1}, {1, 3}, {2, 2}, {3, 5}, {4, 4}, {4, 8},
      {3, 11}, {7, 7}, {8, 8}, {5, 13}, {8, 10}};
  const auto decline = [](const Tensor&) -> std::optional<Tensor> {
    return std::nullopt;
  };
  for (const int threads : {1, 4}) {
    runtime::set_thread_count(threads);
    for (const std::int64_t kernel : {1, 3})
      for (const std::int64_t stride : {1, 2}) {
        // k = C·K·K: 16 or 27 taps (one k block), 73 or 81 (two).
        const std::int64_t channels[] = {kernel == 1 ? 16 : 3,
                                         kernel == 1 ? 73 : 9};
        for (const std::int64_t in_channels : channels)
          for (const std::int64_t out_channels : {3, 5, 8})
            for (const bool bias : {false, true}) {
              Rng rng(static_cast<std::uint64_t>(kernel * 1000 + stride * 100 +
                                                 in_channels * 10 +
                                                 out_channels + bias));
              nn::Conv2d conv("c", in_channels, out_channels, kernel, stride,
                              kernel / 2, bias, rng);
              if (bias) {
                const Tensor b = Tensor::randn({out_channels}, rng);
                conv.bias().value.copy_from(b);
              }
              for (const auto& [oh, ow] : outs)
                for (const std::int64_t batch : {1, 3, 16}) {
                  const Tensor x = Tensor::randn(
                      {batch, in_channels, stride * (oh - 1) + 1,
                       stride * (ow - 1) + 1},
                      rng);
                  const Tensor reference =
                      test::per_sample_forward(conv, x, false);
                  ASSERT_EQ(reference.shape(),
                            (Shape{batch, out_channels, oh, ow}));
                  const auto nbytes =
                      static_cast<std::size_t>(reference.numel()) *
                      sizeof(float);
                  conv.set_mvm_hook(decline);
                  const Tensor hooked = conv.forward(x, false);
                  conv.set_mvm_hook(nullptr);
                  const Tensor eval = conv.forward(x, false);
                  const Tensor train = conv.forward(x, true);
                  const std::pair<const char*, const Tensor*> paths[] = {
                      {"hooked", &hooked}, {"eval", &eval},
                      {"training", &train}};
                  for (const auto& [path, got] : paths)
                    ASSERT_EQ(std::memcmp(got->data(), reference.data(),
                                          nbytes),
                              0)
                        << path << " threads=" << threads
                        << " kernel=" << kernel << " stride=" << stride
                        << " C=" << in_channels << " F=" << out_channels
                        << " bias=" << bias << " p=" << oh * ow
                        << " batch=" << batch;
                }
            }
      }
  }
  runtime::set_thread_count(0);
}

TEST(MvmHook, TrainingPathIgnoresHook) {
  Rng rng(2);
  nn::Linear fc("fc", 4, 2, false, rng);
  int calls = 0;
  fc.set_mvm_hook([&calls](const Tensor&) -> std::optional<Tensor> {
    ++calls;
    return std::nullopt;
  });
  Tensor x = Tensor::randn({2, 4}, rng);
  fc.forward(x, /*training=*/true);
  EXPECT_EQ(calls, 0);
}

TEST(MvmHook, HookResultReplacesGemm) {
  Rng rng(3);
  nn::Linear fc("fc", 3, 2, false, rng);
  fc.set_mvm_hook([](const Tensor& input) -> std::optional<Tensor> {
    return Tensor::full({input.dim(0), 2}, 42.0F);
  });
  Tensor x = Tensor::randn({2, 3}, rng);
  const Tensor y = fc.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 42.0F);
  EXPECT_FLOAT_EQ(y.at(1, 1), 42.0F);
}

TEST(AnalogNetwork, RequiresCalibration) {
  Fixture f;
  auto net = xbar::map_model(*f.model, small_map());
  AnalogNetwork chip(*f.model, net, {});
  EXPECT_FALSE(chip.calibrated());
  EXPECT_THROW(chip.forward(f.data.test.images), CheckError);
}

TEST(AnalogNetwork, MatchesFloatAccuracyWithIdealComponents) {
  Fixture f;
  auto net = xbar::map_model(*f.model, small_map());
  AnalogNetwork chip(*f.model, net, {});
  chip.calibrate(f.data.train);
  const double analog_acc = chip.evaluate(f.data.test);
  // With Eq. 1 ADCs and no variation, the only gap is 8-bit weight and
  // activation quantization — a few points at most.
  EXPECT_GT(analog_acc, f.float_accuracy - 0.15);
  // ADC conversions actually happened on every layer.
  for (const auto& sim : chip.sims())
    EXPECT_GT(sim->stats().adc_conversions, 0);
}

TEST(AnalogNetwork, DestructorRestoresFloatPath) {
  Fixture f;
  nn::TrainConfig tc;
  nn::Trainer trainer(*f.model, tc);
  const double before = trainer.evaluate(f.data.test);
  {
    auto net = xbar::map_model(*f.model, small_map());
    AnalogNetwork chip(*f.model, net, {});
    chip.calibrate(f.data.train);
  }
  EXPECT_DOUBLE_EQ(trainer.evaluate(f.data.test), before);
}

TEST(AnalogNetwork, FirstLayerDetectedAsSignedInput) {
  Fixture f;
  auto net = xbar::map_model(*f.model, small_map());
  AnalogNetwork chip(*f.model, net, {});
  chip.calibrate(f.data.train);
  // Raw pixels are signed; post-ReLU inner activations are not. The
  // calibration pass must have noticed for at least the first layer and
  // the analog pass must still classify sensibly.
  EXPECT_GT(chip.evaluate(f.data.test), 0.4);
}

TEST(AnalogNetwork, ModerateVariationDegradesGracefully) {
  Fixture f;
  auto net = xbar::map_model(*f.model, small_map());
  // The paper's 10% process variation.
  MsimConfig cfg;
  cfg.variation_sigma = 0.10;
  AnalogNetwork chip(*f.model, net, cfg);
  chip.calibrate(f.data.train);
  const double with_variation = chip.evaluate(f.data.test);
  EXPECT_GT(with_variation, 0.3);  // still far above chance (0.25)
}

TEST(AnalogNetwork, CpPrunedChipStillClassifies) {
  Fixture f;
  core::PipelineConfig pcfg;
  pcfg.xbar = {16, 16};
  pcfg.pretrain.epochs = 0;
  pcfg.admm.epochs = 4;
  pcfg.admm.batch_size = 16;
  pcfg.admm.sgd.lr = 0.02F;
  pcfg.retrain.epochs = 4;
  pcfg.retrain.batch_size = 16;
  pcfg.retrain.sgd.lr = 0.01F;
  auto specs = core::uniform_cp_specs(*f.model, 4, pcfg.xbar);
  core::run_pipeline(*f.model, f.data.train, f.data.test, specs, pcfg);

  auto net = xbar::map_model(*f.model, small_map(), specs);
  AnalogNetwork chip(*f.model, net, {});
  chip.calibrate(f.data.train);
  const double analog_acc = chip.evaluate(f.data.test);
  EXPECT_GT(analog_acc, 0.4);
  // The pruned chip's post-first-layer ADCs are smaller than dense.
  const int dense_bits =
      xbar::required_adc_bits(1, 2, small_map().dims.rows);
  bool any_smaller = false;
  for (std::size_t i = 1; i < chip.sims().size(); ++i)
    if (chip.sims()[i]->adc_bits() < dense_bits) any_smaller = true;
  EXPECT_TRUE(any_smaller);
}

TEST(AnalogNetwork, RejectsMismatchedMapping) {
  Fixture f;
  nn::ModelConfig other;
  other.num_classes = 4;
  other.image_size = 8;
  other.width_mult = 0.0625F;
  auto vgg = nn::vgg16(other);
  auto net = xbar::map_model(*vgg, small_map());
  EXPECT_THROW(AnalogNetwork(*f.model, net, {}), CheckError);
}

}  // namespace
}  // namespace tinyadc::msim
