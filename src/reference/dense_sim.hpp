// Dense row-scan model of the analog MVM datapath: the test oracle.
//
// For every (block, logical column) pair it splits each activation into
// DAC chunks, scans every crossbar row of the column once per (polarity,
// slice plane, DAC cycle) — O(r) per column, pruned rows included — and
// sums level · chunk, times the cell's variation factor and divided by its
// IR-drop divisor, in ascending row order. Each sum goes through the ADC
// (Adc::convert, the simulator's one rounding rule) and the codes are
// shifted and added per polarity. Nothing is precomputed or skipped, so
// the model reads as the datapath itself.
//
// msim::AnalogLayerSim executes the same datapath through its packed plan
// and must equal this model bit for bit: outputs and all three counters,
// at every thread count (tests/msim_plan_test.cpp). With an ideal
// configuration and an Eq. 1-sized ADC the model in turn equals the exact
// integer product xbar::reference_mvm (tests/reference_test.cpp), which is
// the paper's exactness claim. Only tests and benches link this target;
// the simulator, the serving stack and the CLI do not.
#pragma once

#include <cstdint>
#include <vector>

#include "msim/analog_mvm.hpp"
#include "xbar/mapping.hpp"
#include "xbar/quant.hpp"

namespace tinyadc::reference {

/// One dense MVM: the layer's column sums and the counters it adds (one
/// MVM's worth of ADC conversions, clips and DAC cycles).
struct DenseMvm {
  std::vector<std::int64_t> y;
  msim::MsimStats stats;
};

/// Runs one integer-domain MVM (unsigned activation codes in, signed
/// column sums out) through the dense model of `layer` under `config`.
/// The ADC has config.adc_bits_override bits, or the layer's Eq. 1 width
/// when that is −1. `variation` holds the programmed chip's per-block
/// factors exactly as msim::AnalogLayerSim::variation() returns them
/// (empty: no variation). Pairs convert in parallel and merge in a fixed
/// order, so the result is the same at any thread count.
DenseMvm dense_mvm(const xbar::MappedLayer& layer,
                   const msim::MsimConfig& config,
                   const std::vector<std::vector<float>>& variation,
                   const std::vector<std::int32_t>& x);

/// dense_mvm behind the call surface of msim::AnalogLayerSim that the
/// equivalence tests compare: per-call outputs and accumulated statistics.
/// Holds a reference to `layer` and a copy of the variation draws.
class DenseSim {
 public:
  DenseSim(const xbar::MappedLayer& layer, const msim::MsimConfig& config,
           std::vector<std::vector<float>> variation);

  std::vector<std::int64_t> mvm(const std::vector<std::int32_t>& x);
  /// Quantizes `x_real` with `x_quant`, runs mvm() and rescales, with the
  /// arithmetic of AnalogLayerSim::mvm_real.
  std::vector<float> mvm_real(const std::vector<float>& x_real,
                              const xbar::QuantParams& x_quant);
  /// The two-phase signed split of AnalogLayerSim::mvm_real_signed.
  std::vector<float> mvm_real_signed(const std::vector<float>& x_real,
                                     const xbar::QuantParams& x_quant);

  /// Statistics summed over every call so far.
  const msim::MsimStats& stats() const { return stats_; }

 private:
  const xbar::MappedLayer& layer_;
  msim::MsimConfig config_;
  std::vector<std::vector<float>> variation_;
  msim::MsimStats stats_;
};

}  // namespace tinyadc::reference
