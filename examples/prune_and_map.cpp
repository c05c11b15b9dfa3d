// Scenario: combined pruning + crossbar mapping + analog verification.
//
// Reproduces the paper's two-pronged recipe on a VGG-16-style network:
// crossbar-aware filter pruning removes whole crossbar arrays, column
// proportional pruning shrinks every surviving ADC, and the functional
// mixed-signal simulator proves the reduced-ADC readout is bit-exact.
//
// Run: ./build/examples/prune_and_map
#include <cstdio>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "msim/analog_mvm.hpp"
#include "nn/models.hpp"
#include "xbar/mapping.hpp"

int main() {
  using namespace tinyadc;

  data::SyntheticSpec dspec = data::cifar100_like();
  dspec.image_size = 8;
  dspec.train_per_class = 24;
  dspec.test_per_class = 8;
  const auto data = data::make_synthetic(dspec);

  nn::ModelConfig mcfg;
  mcfg.num_classes = dspec.num_classes;
  mcfg.image_size = dspec.image_size;
  mcfg.width_mult = 0.125F;
  auto model = nn::vgg16(mcfg);

  // Combined pruning: 25 % of filters (rounded down to whole crossbar
  // columns) + 4x column proportional pruning.
  core::PipelineConfig pcfg;
  pcfg.xbar = {16, 16};
  pcfg.pretrain.epochs = 10;
  pcfg.pretrain.batch_size = 32;
  pcfg.pretrain.sgd.lr = 0.03F;
  pcfg.pretrain.sgd.total_epochs = 10;
  pcfg.admm.epochs = 6;
  pcfg.admm.batch_size = 32;
  pcfg.admm.sgd.lr = 0.01F;
  pcfg.retrain.epochs = 6;
  pcfg.retrain.batch_size = 32;
  pcfg.retrain.sgd.lr = 0.005F;

  auto specs = core::uniform_cp_specs(*model, 4, pcfg.xbar);
  core::add_structured(specs, *model, /*filter_frac=*/0.25,
                       /*shape_frac=*/0.0, pcfg.xbar);
  const auto result =
      core::run_pipeline(*model, data.train, data.test, specs, pcfg);

  std::printf("baseline %.1f%% -> combined-pruned %.1f%% (rate %.1fx)\n",
              100.0 * result.baseline_accuracy,
              100.0 * result.final_accuracy, result.report.pruning_rate());

  // Map the pruned network and account crossbars + ADCs per layer. Passing
  // the specs lets the mapper compact the structurally-pruned filters away
  // (the paper's reform step), converting them into crossbar reductions.
  xbar::MappingConfig map_cfg;
  map_cfg.dims = pcfg.xbar;
  const auto net = xbar::map_model(*model, map_cfg, specs);
  std::printf("\n%-22s %8s %8s %10s %9s\n", "layer", "dense", "active",
              "occupancy", "ADC bits");
  for (const auto& layer : net.layers) {
    std::printf("%-22s %8lld %8lld %10lld %9d\n", layer.name.c_str(),
                static_cast<long long>(layer.dense_blocks() *
                                       layer.arrays_per_block()),
                static_cast<long long>(layer.active_arrays()),
                static_cast<long long>(layer.max_active_rows()),
                layer.design_adc_bits());
  }
  std::printf("crossbar reduction: %.1f%%\n",
              100.0 * net.crossbar_reduction());

  // Verify the central claim on a real layer: analog MVM with the REDUCED
  // Eq. 1 ADC equals the integer reference exactly.
  const auto& probe = net.layers[4];
  msim::AnalogLayerSim sim(probe, {});
  Rng rng(5);
  std::vector<std::int32_t> x(static_cast<std::size_t>(probe.rows));
  for (auto& v : x)
    v = static_cast<std::int32_t>(rng.uniform_int(1U << map_cfg.input_bits));
  const bool exact = sim.mvm(x) == xbar::reference_mvm(probe, x);
  std::printf(
      "\nanalog MVM on '%s' with a %d-bit ADC: %s (clips: %lld)\n",
      probe.name.c_str(), sim.adc_bits(),
      exact ? "bit-exact" : "MISMATCH",
      static_cast<long long>(sim.stats().adc_clip_events));
  return exact ? 0 : 1;
}
