#include "nn/sequential.hpp"

#include "tensor/ops.hpp"

namespace tinyadc::nn {

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& child : children_) x = child->forward(x, training);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::visit(const std::function<void(Layer&)>& fn) {
  fn(*this);
  for (auto& child : children_) child->visit(fn);
}

Residual::Residual(std::string name, LayerPtr main_branch, LayerPtr shortcut)
    : Layer(std::move(name)),
      main_(std::move(main_branch)),
      shortcut_(std::move(shortcut)) {
  TINYADC_CHECK(main_ != nullptr, "Residual requires a main branch");
}

Tensor Residual::forward(const Tensor& input, bool training) {
  Tensor main_out = main_->forward(input, training);
  Tensor short_out =
      shortcut_ ? shortcut_->forward(input, training) : input;
  TINYADC_CHECK(main_out.numel() == short_out.numel(),
                "Residual " << name() << ": branch shape mismatch "
                            << shape_to_string(main_out.shape()) << " vs "
                            << shape_to_string(short_out.shape()));
  Tensor out = add(main_out, short_out);
  // Final ReLU of the block.
  Tensor mask = training ? Tensor(out.shape()) : Tensor();
  float* o = out.data();
  float* m = training ? mask.data() : nullptr;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    const bool on = o[i] > 0.0F;
    if (!on) o[i] = 0.0F;
    if (m) m[i] = on ? 1.0F : 0.0F;
  }
  if (training) relu_mask_ = std::move(mask);
  return out;
}

Tensor Residual::backward(const Tensor& grad_output) {
  TINYADC_CHECK(relu_mask_.numel() == grad_output.numel(),
                "Residual " << name() << ": backward without forward");
  Tensor g = grad_output.clone();
  mul_(g, relu_mask_);
  relu_mask_ = Tensor();
  Tensor grad_main = main_->backward(g);
  if (shortcut_) {
    Tensor grad_short = shortcut_->backward(g);
    add_(grad_main, grad_short);
  } else {
    add_(grad_main, g);
  }
  return grad_main;
}

void Residual::visit(const std::function<void(Layer&)>& fn) {
  fn(*this);
  main_->visit(fn);
  if (shortcut_) shortcut_->visit(fn);
}


LayerPtr Sequential::clone() const {
  auto copy = std::make_unique<Sequential>(name());
  for (const auto& child : children_) copy->add(child->clone());
  return copy;
}

LayerPtr Residual::clone() const {
  return std::make_unique<Residual>(name(), main_->clone(),
                                    shortcut_ ? shortcut_->clone() : nullptr);
}

}  // namespace tinyadc::nn
