#include "msim/analog_network.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "artifact/format.hpp"
#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "runtime/parallel.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::msim {

namespace {

// The one plans payload this build reads and writes: the MsimConfig header,
// then per layer the ADC width, the ideal-path flag, the variation draws and
// the SoA plan streams as 64-byte-aligned arrays, so a mapped load executes
// them in place (zero-copy).
constexpr std::uint32_t kPlansSectionVersion = 4;
constexpr std::uint32_t kCalibSectionVersion = 1;

std::atomic<std::int64_t> g_calibration_runs{0};

/// Analog execution of one linear layer: batch samples are independent
/// MVMs, already laid out as row-major samples.
Tensor analog_linear_mvm(AnalogLayerSim& sim, const Tensor& input,
                         const xbar::QuantParams& quant, bool signed_input,
                         std::int64_t out_features) {
  const std::int64_t batch = input.dim(0);
  const std::vector<float> xs(input.data(), input.data() + input.numel());
  const auto y = sim.mvm_real_batch(xs, batch, quant, signed_input);
  Tensor out({batch, out_features});
  std::copy(y.begin(), y.end(), out.data());
  return out;
}

}  // namespace

AnalogNetwork::AnalogNetwork(nn::Model& model, const xbar::MappedNetwork& net,
                             MsimConfig config)
    : model_(model), net_(net), config_(config) {
  const auto views = model_.prunable_views();
  TINYADC_CHECK(views.size() == net_.layers.size(),
                "mapped network has " << net_.layers.size()
                                      << " layers, model has "
                                      << views.size());
  sims_.reserve(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    TINYADC_CHECK(views[i].layer_name == net_.layers[i].name,
                  "layer order mismatch: " << views[i].layer_name << " vs "
                                           << net_.layers[i].name);
    TINYADC_CHECK(views[i].rows == net_.layers[i].rows &&
                      views[i].cols == net_.layers[i].cols,
                  "layer shape mismatch on " << views[i].layer_name);
    MsimConfig layer_cfg = config_;
    layer_cfg.seed = config_.seed + i * 131;  // independent variation draws
    sims_.push_back(
        std::make_unique<AnalogLayerSim>(net_.layers[i], layer_cfg));
  }
  observed_max_.assign(views.size(), 0.0F);
  act_quant_.assign(views.size(), {});
  signed_input_.assign(views.size(), false);
  install_hooks();
}

AnalogNetwork::AnalogNetwork(nn::Model& model, const xbar::MappedNetwork& net,
                             artifact::SectionReader& plans,
                             artifact::SectionReader& calib)
    : model_(model), net_(net) {
  const auto views = model_.prunable_views();
  TINYADC_CHECK(views.size() == net_.layers.size(),
                "mapped network has " << net_.layers.size()
                                      << " layers, model has "
                                      << views.size());

  // --- Compiled plans section: shared config + one sim per layer. ---------
  const auto plans_version = plans.pod<std::uint32_t>();
  TINYADC_CHECK(plans_version == kPlansSectionVersion,
                "unsupported PLANS section version "
                    << plans_version << " (this build reads only v"
                    << kPlansSectionVersion
                    << "); regenerate the artifact with this build "
                       "(prune/map --save-artifact)");
  config_ = deserialize_msim_config(plans);
  const auto nsims = plans.pod<std::uint64_t>();
  TINYADC_CHECK(nsims == views.size(),
                "artifact holds " << nsims << " compiled layers, model has "
                                  << views.size());
  sims_.reserve(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    TINYADC_CHECK(views[i].layer_name == net_.layers[i].name,
                  "layer order mismatch: " << views[i].layer_name << " vs "
                                           << net_.layers[i].name);
    TINYADC_CHECK(views[i].rows == net_.layers[i].rows &&
                      views[i].cols == net_.layers[i].cols,
                  "layer shape mismatch on " << views[i].layer_name);
    MsimConfig layer_cfg = config_;
    layer_cfg.seed = config_.seed + i * 131;  // mirrors the compile-time draw
    sims_.push_back(
        AnalogLayerSim::deserialize(net_.layers[i], layer_cfg, plans));
  }
  TINYADC_CHECK(plans.remaining() == 0,
                "trailing bytes after the compiled plans");

  // --- Calibration section: quantizer ranges + signed-input flags. --------
  const auto calib_version = calib.pod<std::uint32_t>();
  TINYADC_CHECK(calib_version == kCalibSectionVersion,
                "unsupported calibration-section version " << calib_version);
  const auto nlayers = calib.pod<std::uint64_t>();
  TINYADC_CHECK(nlayers == views.size(),
                "artifact calibrates " << nlayers << " layers, model has "
                                       << views.size());
  act_quant_.reserve(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    xbar::QuantParams q;
    q.bits = static_cast<int>(calib.pod<std::int32_t>());
    q.scale = calib.pod<float>();
    TINYADC_CHECK(q.bits == net_.config.input_bits,
                  "layer " << views[i].layer_name
                           << ": activation quantizer has " << q.bits
                           << " bits, mapping uses " << net_.config.input_bits);
    TINYADC_CHECK(std::isfinite(q.scale) && q.scale > 0.0F,
                  "layer " << views[i].layer_name
                           << ": non-positive activation scale");
    act_quant_.push_back(q);
  }
  signed_input_ = calib.vec_bool();
  TINYADC_CHECK(signed_input_.size() == views.size(),
                "artifact's signed-input flags cover "
                    << signed_input_.size() << " layers, model has "
                    << views.size());
  TINYADC_CHECK(calib.remaining() == 0,
                "trailing bytes after the calibration state");

  observed_max_.assign(views.size(), 0.0F);
  calibrated_ = true;
  mode_ = Mode::kAnalog;
  install_hooks();
}

void AnalogNetwork::serialize_plans(artifact::SectionWriter& w) const {
  w.pod(kPlansSectionVersion);
  serialize(config_, w);
  w.pod(static_cast<std::uint64_t>(sims_.size()));
  for (const auto& sim : sims_) sim->serialize(w);
}

void AnalogNetwork::serialize_calibration(artifact::SectionWriter& w) const {
  TINYADC_CHECK(calibrated_,
                "serialize_calibration before calibrate(): the artifact "
                "must carry final quantizer ranges");
  w.pod(kCalibSectionVersion);
  w.pod(static_cast<std::uint64_t>(act_quant_.size()));
  for (const auto& q : act_quant_) {
    w.pod(static_cast<std::int32_t>(q.bits));
    w.pod(q.scale);
  }
  w.vec_bool(signed_input_);
}

std::int64_t AnalogNetwork::calibration_runs() {
  return g_calibration_runs.load(std::memory_order_relaxed);
}

AnalogNetwork::~AnalogNetwork() { remove_hooks(); }

void AnalogNetwork::install_hooks() {
  std::size_t index = 0;
  model_.root().visit([this, &index](nn::Layer& layer) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const std::size_t i = index++;
      conv->set_mvm_hook([this, i](const Tensor& cols)
                             -> std::optional<Tensor> {
        if (mode_ == Mode::kCalibrate) {
          const RangeScan r = scan_range(cols);
          observed_max_[i] = std::max(observed_max_[i], r.max_abs);
          if (r.negative) signed_input_[i] = true;
          return std::nullopt;  // float path computes the result
        }
        // The whole batch's patch matrix, one pixel MVM per column.
        return sims_[i]->mvm_real_columns(cols, act_quant_[i],
                                          signed_input_[i]);
      });
    } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
      const std::size_t i = index++;
      fc->set_mvm_hook([this, i](const Tensor& input)
                           -> std::optional<Tensor> {
        if (mode_ == Mode::kCalibrate) {
          const RangeScan r = scan_range(input);
          observed_max_[i] = std::max(observed_max_[i], r.max_abs);
          if (r.negative) signed_input_[i] = true;
          return std::nullopt;
        }
        return analog_linear_mvm(*sims_[i], input, act_quant_[i],
                                 signed_input_[i], net_.layers[i].cols);
      });
    }
  });
}

void AnalogNetwork::remove_hooks() {
  model_.root().visit([](nn::Layer& layer) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      conv->set_mvm_hook(nullptr);
    } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
      fc->set_mvm_hook(nullptr);
    }
  });
}

void AnalogNetwork::calibrate(const data::Dataset& sample,
                              std::int64_t max_images) {
  TINYADC_CHECK(sample.size() > 0, "calibration set is empty");
  g_calibration_runs.fetch_add(1, std::memory_order_relaxed);
  mode_ = Mode::kCalibrate;
  std::fill(observed_max_.begin(), observed_max_.end(), 0.0F);
  std::fill(signed_input_.begin(), signed_input_.end(), false);
  // Forward in chunks: every conv hook sees one chunk's whole patch matrix,
  // so the chunk only bounds the transient memory. Observed maxima and
  // signs do not depend on the chunking, and neither do the float
  // activations: every GEMM element is invariant to its row and column
  // offset, so each image computes the same floats in any chunk.
  constexpr std::int64_t kChunk = 16;
  const auto n = std::min<std::int64_t>(sample.size(), max_images);
  for (std::int64_t c0 = 0; c0 < n; c0 += kChunk) {
    const std::int64_t c1 = std::min(n, c0 + kChunk);
    std::vector<std::size_t> idx;
    for (std::int64_t i = c0; i < c1; ++i)
      idx.push_back(static_cast<std::size_t>(i));
    (void)model_.forward(sample.subset(idx).images, /*training=*/false);
  }
  for (std::size_t i = 0; i < act_quant_.size(); ++i)
    act_quant_[i] = xbar::fit_unsigned(
        observed_max_[i] > 0.0F ? observed_max_[i] : 1.0F,
        net_.config.input_bits);
  calibrated_ = true;
  mode_ = Mode::kAnalog;
}

Tensor AnalogNetwork::forward(const Tensor& images) {
  TINYADC_CHECK(calibrated_, "AnalogNetwork::forward before calibrate()");
  mode_ = Mode::kAnalog;
  return model_.forward(images, /*training=*/false);
}

double AnalogNetwork::evaluate(const data::Dataset& test,
                               std::size_t batch_size) {
  TINYADC_CHECK(calibrated_, "AnalogNetwork::evaluate before calibrate()");
  data::BatchIterator it(test, batch_size, nullptr);
  data::Batch batch;
  std::int64_t correct = 0;
  std::int64_t seen = 0;
  while (it.next(batch)) {
    Tensor logits = forward(batch.images);
    const std::int64_t k = logits.dim(1);
    for (std::size_t i = 0; i < batch.labels.size(); ++i) {
      const auto row = static_cast<std::int64_t>(i);
      if (argmax_range(logits, row * k, (row + 1) * k) == batch.labels[i])
        ++correct;
    }
    seen += static_cast<std::int64_t>(batch.labels.size());
  }
  return seen ? static_cast<double>(correct) / static_cast<double>(seen) : 0.0;
}

AnalogSession::AnalogSession(const AnalogNetwork& compiled)
    : compiled_(compiled), model_(compiled.model().clone()) {
  TINYADC_CHECK(compiled_.calibrated(),
                "AnalogSession requires a calibrated AnalogNetwork");
  // Hook the replica's prunable layers to the shared simulators. The hooks
  // capture the compiled network by pointer (stable across session moves)
  // and only read its post-calibration state.
  const AnalogNetwork* c = &compiled_;
  std::size_t index = 0;
  model_.root().visit([c, &index](nn::Layer& layer) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      const std::size_t i = index++;
      conv->set_mvm_hook([c, i](const Tensor& cols) -> std::optional<Tensor> {
        return c->sims()[i]->mvm_real_columns(
            cols, c->activation_quant()[i], c->signed_input()[i]);
      });
    } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
      const std::size_t i = index++;
      fc->set_mvm_hook([c, i](const Tensor& input) -> std::optional<Tensor> {
        return analog_linear_mvm(*c->sims()[i], input,
                                 c->activation_quant()[i],
                                 c->signed_input()[i], c->net().layers[i].cols);
      });
    }
  });
}

Tensor AnalogSession::forward(const Tensor& images) {
  return model_.forward(images, /*training=*/false);
}

}  // namespace tinyadc::msim
