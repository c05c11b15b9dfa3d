// Per-inference energy and latency estimation for a mapped network.
//
// Analytical model with explicit (documented) assumptions, sufficient for
// relative comparisons between dense and pruned designs:
//  * one MVM = one application of a layer's input vector (conv layers run
//    one MVM per output pixel, FC layers one per image);
//  * a v-bit DAC streams ceil(input_bits / v) cycles per MVM;
//  * every physical array (slice plane × polarity) owns one ADC shared by
//    its `block.cols` columns, so an activation costs `cols` conversions
//    on that ADC; all arrays convert in parallel, layers run serially
//    (conservative vs ISAAC's inter-layer pipelining — stated in the
//    report);
//  * energy = conversions · E_adc(bits) + array/DAC activation energy per
//    cycle + resolution-scaled digital (S&H, shift&add, registers, buffer)
//    power integrated over the layer's active time.
#pragma once

#include "hw/cost_model.hpp"
#include "nn/model.hpp"

namespace tinyadc::hw {

/// Per-layer inference-cost breakdown.
struct LayerInferenceCost {
  std::string name;
  std::int64_t mvms = 0;             ///< MVMs this layer runs per image
  std::int64_t adc_conversions = 0;  ///< total conversions per image
  double latency_s = 0.0;            ///< serialized layer latency
  double energy_j = 0.0;             ///< total energy per image
};

/// Whole-network per-image cost.
struct InferenceCost {
  std::vector<LayerInferenceCost> layers;
  double latency_s = 0.0;        ///< Σ layer latencies (no pipelining)
  double energy_j = 0.0;         ///< Σ layer energies
  double adc_energy_j = 0.0;     ///< ADC share of energy
  double array_energy_j = 0.0;   ///< crossbar read share
  double dac_energy_j = 0.0;     ///< DAC share
  double digital_energy_j = 0.0; ///< S&H + shift&add + registers + buffers

  /// Images per second at this latency (serial execution).
  double fps() const { return latency_s > 0.0 ? 1.0 / latency_s : 0.0; }
  /// Images per joule.
  double images_per_joule() const {
    return energy_j > 0.0 ? 1.0 / energy_j : 0.0;
  }
};

/// MVM counts per prunable layer for one image of `input_shape`
/// (C, H, W): conv layers contribute out_h·out_w, FC layers 1. Runs a
/// single dummy forward pass on a hook-free clone to resolve spatial
/// geometry, so `model` and any simulator attached to it are untouched.
std::vector<std::int64_t> mvms_per_inference(const nn::Model& model,
                                             const Shape& input_shape);

/// Estimates per-image latency/energy for `net` (aligned with
/// `mvms_per_layer`, e.g. from mvms_per_inference). The first layer's ADC
/// resolution is held at the dense design value when
/// `full_first_layer_adc` is set, matching build_accelerator.
InferenceCost estimate_inference(const xbar::MappedNetwork& net,
                                 const std::vector<std::int64_t>&
                                     mvms_per_layer,
                                 const CostConstants& constants,
                                 bool full_first_layer_adc = true);

}  // namespace tinyadc::hw
