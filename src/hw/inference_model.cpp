#include "hw/inference_model.hpp"

#include <algorithm>
#include <cmath>

#include "msim/dac.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "tensor/check.hpp"

namespace tinyadc::hw {

std::vector<std::int64_t> mvms_per_inference(const nn::Model& model,
                                             const Shape& input_shape) {
  TINYADC_CHECK(input_shape.size() == 3, "input_shape must be (C, H, W)");
  // One dummy image resolves every conv's spatial geometry. It runs on a
  // clone, which carries no MVM hooks: an attached AnalogNetwork would
  // otherwise simulate the dummy and count it in every layer's ADC, clip
  // and DAC counters.
  nn::Model probe = model.clone();
  Tensor dummy({1, input_shape[0], input_shape[1], input_shape[2]});
  (void)probe.forward(dummy, /*training=*/false);
  std::vector<std::int64_t> mvms;
  probe.root().visit([&mvms](nn::Layer& layer) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const auto& g = conv->last_geometry();
      mvms.push_back(g.out_h() * g.out_w());
    } else if (dynamic_cast<nn::Linear*>(&layer) != nullptr) {
      mvms.push_back(1);
    }
  });
  return mvms;
}

InferenceCost estimate_inference(const xbar::MappedNetwork& net,
                                 const std::vector<std::int64_t>&
                                     mvms_per_layer,
                                 const CostConstants& constants,
                                 bool full_first_layer_adc) {
  TINYADC_CHECK(mvms_per_layer.size() == net.layers.size(),
                "mvm count " << mvms_per_layer.size() << " != layer count "
                             << net.layers.size());
  InferenceCost total;
  const double rate = constants.adc_rate_hz;
  const int dense_bits =
      xbar::design_adc_bits(net.config, net.config.dims.rows);
  const int cycles =
      msim::dac_cycles(net.config.input_bits, net.config.dac_bits);

  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const auto& layer = net.layers[i];
    LayerInferenceCost lc;
    lc.name = layer.name;
    lc.mvms = mvms_per_layer[i];
    const int bits = (i == 0 && full_first_layer_adc)
                         ? dense_bits
                         : layer.design_adc_bits();
    const double e_adc = constants.adc.power_w(bits, rate) / rate;

    // Widest block bounds the per-ADC serialization; all arrays parallel.
    std::int64_t widest_cols = 0;
    std::int64_t active_blocks = 0;
    std::int64_t conversions_per_mvm = 0;
    for (const auto& b : layer.blocks) {
      if (b.all_zero()) continue;
      ++active_blocks;
      widest_cols = std::max(widest_cols, b.cols);
      conversions_per_mvm +=
          b.cols * layer.arrays_per_block() * cycles;
    }
    lc.adc_conversions = conversions_per_mvm * lc.mvms;
    lc.latency_s = static_cast<double>(lc.mvms) *
                   static_cast<double>(cycles) *
                   static_cast<double>(widest_cols) / rate;

    // Energy: conversions, array/DAC activations, digital datapath.
    const double adc_energy = static_cast<double>(lc.adc_conversions) * e_adc;
    const double array_cycles = static_cast<double>(lc.mvms) * cycles *
                                static_cast<double>(active_blocks) *
                                static_cast<double>(layer.arrays_per_block());
    const double array_energy = array_cycles * constants.array_power_w / rate;
    const double dac_energy = array_cycles * constants.dac_power_w / rate;
    const double width_scale = std::max(static_cast<double>(bits), 4.0) / 8.0;
    const double tiles = std::ceil(
        static_cast<double>(layer.active_arrays()) /
        static_cast<double>(constants.arrays_per_tile));
    const double digital_power =
        static_cast<double>(layer.active_arrays()) *
            (constants.sh_power_w + constants.shiftadd_power_w +
             constants.reg_power_w) * width_scale +
        tiles * (constants.buffer_power_w + constants.router_power_w) *
            width_scale;
    const double digital_energy = digital_power * lc.latency_s;

    lc.energy_j = adc_energy + array_energy + dac_energy + digital_energy;
    total.adc_energy_j += adc_energy;
    total.array_energy_j += array_energy;
    total.dac_energy_j += dac_energy;
    total.digital_energy_j += digital_energy;
    total.latency_s += lc.latency_s;
    total.energy_j += lc.energy_j;
    total.layers.push_back(std::move(lc));
  }
  return total;
}

}  // namespace tinyadc::hw
