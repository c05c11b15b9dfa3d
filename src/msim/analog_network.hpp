// Whole-network mixed-signal inference.
//
// Routes every Conv2d/Linear of a trained model through the analog crossbar
// simulator (via the layers' MvmHook), so a full forward pass exercises the
// complete chip datapath: activation quantization → DAC bit-streaming →
// per-column analog sums → Eq. 1-sized ADCs → shift-and-add → dequantize.
// BatchNorm, pooling and ReLU run digitally (as they do on the real
// accelerator's peripheral logic).
//
// Activation quantizer ranges are calibrated by running a float pass over
// sample data and recording each layer's input magnitude — the standard
// post-training calibration flow. With zero conductance variation and
// Eq. 1 ADCs the only accuracy gap vs the float model is the weight /
// activation quantization itself; variation and ADC underprovisioning can
// then be dialed in to study the real chip's behaviour.
#pragma once

#include <memory>

#include "data/dataset.hpp"
#include "msim/analog_mvm.hpp"
#include "nn/model.hpp"

namespace tinyadc::artifact {
class SectionWriter;
class SectionReader;
}  // namespace tinyadc::artifact

namespace tinyadc::msim {

/// Runs a model's inference on the simulated mixed-signal accelerator.
///
/// The AnalogNetwork installs MVM hooks on the model's conv/linear layers
/// for its lifetime; destroying it restores the float path. The mapped
/// network must outlive this object and match the model layer-for-layer.
class AnalogNetwork {
 public:
  AnalogNetwork(nn::Model& model, const xbar::MappedNetwork& net,
                MsimConfig config);

  /// Restores a deployed network from artifact sections written by
  /// serialize_plans() / serialize_calibration(). The restored network is
  /// immediately calibrated and in analog mode: no calibrate() call, no
  /// plan compilation — per-layer sims come from AnalogLayerSim's
  /// deserialize path (MsimConfig included in `plans`), and quantizer
  /// ranges are read back verbatim from `calib`.
  AnalogNetwork(nn::Model& model, const xbar::MappedNetwork& net,
                artifact::SectionReader& plans, artifact::SectionReader& calib);
  ~AnalogNetwork();
  AnalogNetwork(const AnalogNetwork&) = delete;
  AnalogNetwork& operator=(const AnalogNetwork&) = delete;

  /// Calibrates per-layer activation quantizers from up to `max_images`
  /// examples (float forward passes; hooks record each layer's input range
  /// in one scan and decline, so a conv runs one GEMM per chunk, segmented
  /// per sample, with the per-sample reference floats).
  void calibrate(const data::Dataset& sample, std::int64_t max_images = 32);

  /// Analog forward pass (inference mode). Requires calibrate() first.
  Tensor forward(const Tensor& images);

  /// Top-1 accuracy of the analog chip on `test`.
  double evaluate(const data::Dataset& test, std::size_t batch_size = 16);

  /// Per-layer simulators (for stats such as ADC conversion counts).
  const std::vector<std::unique_ptr<AnalogLayerSim>>& sims() const {
    return sims_;
  }
  /// Per-layer calibrated activation quantizers.
  const std::vector<xbar::QuantParams>& activation_quant() const {
    return act_quant_;
  }
  /// Per-layer signed-input flags (first conv sees raw signed pixels).
  const std::vector<bool>& signed_input() const { return signed_input_; }
  /// True once calibrate() has run.
  bool calibrated() const { return calibrated_; }

  /// Writes the per-layer compiled execution state (shared MsimConfig plus
  /// each sim's ADC sizing, variation draws and packed plan) into a
  /// deployment artifact section.
  void serialize_plans(artifact::SectionWriter& w) const;
  /// Writes the activation-calibration state (per-layer quantizer ranges
  /// and signed-input flags). Requires calibrate() to have run.
  void serialize_calibration(artifact::SectionWriter& w) const;

  /// Process-wide count of calibrate() runs. Lets tests and benches prove
  /// that artifact loading touches no calibration path.
  static std::int64_t calibration_runs();
  /// The hooked model (for cloning into serving sessions).
  const nn::Model& model() const { return model_; }
  /// The mapped network this sim executes.
  const xbar::MappedNetwork& net() const { return net_; }

 private:
  enum class Mode { kCalibrate, kAnalog };

  void install_hooks();
  void remove_hooks();

  nn::Model& model_;
  const xbar::MappedNetwork& net_;
  MsimConfig config_;
  std::vector<std::unique_ptr<AnalogLayerSim>> sims_;  // by prunable index
  std::vector<float> observed_max_;                    // calibration state
  std::vector<xbar::QuantParams> act_quant_;
  std::vector<bool> signed_input_;  // first conv sees raw (signed) pixels
  Mode mode_ = Mode::kCalibrate;
  bool calibrated_ = false;
};

/// One inference session over a calibrated AnalogNetwork.
///
/// The session owns a private Model::clone() replica whose conv/linear
/// layers are hooked to the *shared* per-layer simulators (and their
/// sparsity-packed execution plans) of the compiled network, so plan
/// compilation and activation calibration happen once per deployment
/// rather than once per session. Sessions only read the compiled state;
/// concurrent forward() calls on different sessions over one compiled
/// network are safe (the sims' statistics merges are locked and
/// commutative, so aggregate ADC counters stay exact under concurrency).
/// The compiled network must be calibrated and must outlive the session.
class AnalogSession {
 public:
  explicit AnalogSession(const AnalogNetwork& compiled);

  /// Analog forward pass of a (N, C, H, W) image batch (inference mode).
  Tensor forward(const Tensor& images);

  /// The session's private model replica.
  nn::Model& model() { return model_; }

 private:
  const AnalogNetwork& compiled_;
  nn::Model model_;
};

}  // namespace tinyadc::msim
