// 2-D convolution layer (im2col + GEMM implementation).
#pragma once

#include "nn/layer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace tinyadc::nn {

/// Conv2d with square stride/padding and optional bias.
///
/// Weight layout is (F, C, Kh, Kw) — the standard filter-major layout, which
/// flattens to the 2-D (C·Kh·Kw) × F matrix the crossbar mapper consumes
/// (each 2-D column = one filter, matching Fig. 3 of the paper).
///
/// Three execution paths:
///  * **batched** (default): the whole batch is lowered into one
///    (patch_rows × batch·patch_cols) matrix held in a persistent grow-only
///    workspace — one GEMM for forward, two for backward, no per-sample
///    tensor allocations. Bit-identical at any thread count (GEMM row tiles
///    are globally aligned; im2col/col2im writes are disjoint).
///  * **reference**: the original per-sample loop, retained as the golden
///    path for gradient checks and the bench before/after pairs
///    (set_batched(false) — mirrors MsimConfig::use_plan).
///  * **hooked** (inference with an MvmHook installed, either setting of
///    set_batched): the whole batch is lowered once and offered to the
///    hook in a single call. If the hook declines, one GEMM over that
///    patch matrix, segmented per sample (gemm's `segment` = p), computes
///    the output bit-identically to the reference path, so a declining
///    hook is invisible in the result.
class Conv2d final : public Layer {
 public:
  /// Constructs with Kaiming initialization.
  Conv2d(std::string name, std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t padding,
         bool bias, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  LayerPtr clone() const override;

  /// Weight parameter, shape (F, C, Kh, Kw). Exposed mutably so the pruning
  /// framework can project/mask it.
  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  /// True if the layer has a bias term.
  bool has_bias() const { return has_bias_; }
  /// Bias parameter (requires has_bias()).
  Param& bias();

  /// Installs (or clears, with nullptr) the inference MVM backend.
  void set_mvm_hook(MvmHook hook) { mvm_hook_ = std::move(hook); }

  /// Selects the batched workspace path (default) or the per-sample
  /// reference path. Switching invalidates any cached training forward.
  void set_batched(bool batched);
  /// True when the batched path is active.
  bool batched() const { return use_batched_; }

  /// Frees all workspace storage (im2col matrix, GEMM staging, scratch).
  /// The next forward pass regrows it; call between phases to return the
  /// training footprint (e.g. train → analog-inference hand-off).
  void release_workspace();

  /// Geometry of the most recent forward pass (for workload accounting,
  /// e.g. MVMs per inference). Requires at least one forward() call.
  const ConvGeometry& last_geometry() const {
    TINYADC_CHECK(geom_.in_channels > 0,
                  "Conv2d " << name() << ": no forward pass recorded yet");
    return geom_;
  }

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }

 private:
  /// Tag for the uninitialized-weights constructor used by clone(): the
  /// replica's weights are overwritten right after construction, so the
  /// Kaiming normal-variate draw would be pure waste (clone runs once per
  /// fault-Monte-Carlo replica).
  struct Uninit {};
  Conv2d(Uninit, std::string name, std::int64_t in_channels,
         std::int64_t out_channels, std::int64_t kernel, std::int64_t stride,
         std::int64_t padding, bool bias);

  Tensor forward_hooked(const Tensor& input);
  Tensor forward_batched(const Tensor& input, bool training);
  Tensor backward_batched(const Tensor& grad_output);
  Tensor forward_reference(const Tensor& input, bool training);
  // Scatters a [F, N·p] result into a (N, F, oh, ow) output plus bias.
  Tensor scatter_output(const float* src, std::int64_t batch) const;
  Tensor backward_reference(const Tensor& grad_output);
  void invalidate_cache();

  std::int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  MvmHook mvm_hook_;
  bool use_batched_ = true;

  // forward cache / persistent training workspace (grow-only across steps)
  ConvGeometry geom_{};
  Shape input_shape_;
  bool cache_valid_ = false;        ///< a training forward is pending backward
  Tensor ws_cols_;                  ///< batched im2col matrix [rows, N·p];
                                    ///< reused as dL/dcols during backward
  Tensor ws_out2d_;                 ///< GEMM staging [F, N·p] (fwd and bwd)
  GemmScratch ws_gemm_;             ///< transpose staging for the two
                                    ///< backward GEMMs
  std::vector<Tensor> cols_;        ///< reference path: per-sample matrices
};

}  // namespace tinyadc::nn
