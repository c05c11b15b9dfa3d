// Composite layers: sequential chains and residual blocks.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace tinyadc::nn {

/// Chains child layers; backward runs them in reverse.
class Sequential : public Layer {
 public:
  explicit Sequential(std::string name) : Layer(std::move(name)) {}

  /// Appends a layer and returns a typed raw observer pointer to it.
  template <typename L>
  L* add(std::unique_ptr<L> layer) {
    L* raw = layer.get();
    children_.push_back(std::move(layer));
    return raw;
  }

  /// Constructs a child in place.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(const std::function<void(Layer&)>& fn) override;
  LayerPtr clone() const override;

 private:
  std::vector<LayerPtr> children_;
};

/// Residual connection: output = main(x) + shortcut(x), followed by ReLU.
/// `shortcut` may be null, meaning identity (shapes must then match).
class Residual final : public Layer {
 public:
  Residual(std::string name, LayerPtr main_branch, LayerPtr shortcut);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(const std::function<void(Layer&)>& fn) override;
  LayerPtr clone() const override;

 private:
  LayerPtr main_;
  LayerPtr shortcut_;  // null ⇒ identity
  Tensor relu_mask_;
};

}  // namespace tinyadc::nn
