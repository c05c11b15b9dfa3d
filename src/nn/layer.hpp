// Layer interface for the explicit-backprop NN stack.
//
// There is no tape/autograd: every layer caches what its backward pass needs
// during forward and implements the adjoint computation directly. A model is
// a tree of Layers (composites chain their children), which is all that the
// CNN topologies in this project (ResNet/VGG) require.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace tinyadc::nn {

/// Injectable inference-time MVM backend for Conv2d/Linear.
///
/// When installed, the layer's *inference* forward pass offers its input
/// matrix to the hook instead of running the float GEMM, once per forward
/// call (the whole batch at once):
///  * Conv2d passes the batch's im2col patch matrix (patch_rows ×
///    batch·patch_cols; sample n owns columns [n·patch_cols,
///    (n+1)·patch_cols)) and expects (out_channels × batch·patch_cols) back
///    (pre-bias). Each column is one independent MVM;
///  * Linear passes the (batch × in_features) input and expects
///    (batch × out_features) back (pre-bias).
/// Returning std::nullopt falls back to the float path (used e.g. during
/// activation-range calibration); Conv2d then runs one GEMM over the patch
/// matrix, segmented per sample, which gives the per-sample reference
/// result, the same floats as set_batched(false). Training passes
/// never consult the hook. This is how msim::AnalogNetwork routes a whole
/// model's inference through the mixed-signal crossbar simulator.
using MvmHook = std::function<std::optional<Tensor>(const Tensor& input)>;

class Layer;
using LayerPtr = std::unique_ptr<Layer>;

/// Abstract base for all layers.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Deep copy of this layer (and descendants): configuration, parameter
  /// values and inference buffers (BN running stats) are copied; gradient
  /// accumulators, forward caches and MVM hooks are not. Replicas share no
  /// storage with the original, so they can run on other threads — the
  /// basis of the concurrent fault Monte-Carlo (fault::evaluate).
  virtual LayerPtr clone() const = 0;

  /// Computes the layer output for a batch input. When `training` is true
  /// the layer caches activations needed by backward() and batch-dependent
  /// statistics (BatchNorm) are computed from the batch.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates `grad_output` (gradient of the loss w.r.t. this layer's
  /// output) backwards: accumulates parameter gradients and returns the
  /// gradient w.r.t. the layer's input. Must be called after a
  /// forward(…, /*training=*/true) on the same batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// This layer's own parameters (not descendants').
  virtual std::vector<Param*> params() { return {}; }

  /// Invokes `fn` on this layer and every descendant, pre-order.
  virtual void visit(const std::function<void(Layer&)>& fn) { fn(*this); }

  /// Layer instance name (unique within its parent; used for param paths).
  const std::string& name() const { return name_; }

 protected:
  explicit Layer(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
};

}  // namespace tinyadc::nn
