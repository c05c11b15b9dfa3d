#include "nn/batchnorm.hpp"

#include <cmath>

namespace tinyadc::nn {

BatchNorm2d::BatchNorm2d(std::string name, std::int64_t channels, float eps,
                         float momentum)
    : Layer(std::move(name)),
      channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Layer::name() + ".gamma", Tensor::ones({channels}),
             /*apply_decay=*/false),
      beta_(Layer::name() + ".beta", Tensor::zeros({channels}),
            /*apply_decay=*/false),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::ones({channels})) {
  TINYADC_CHECK(channels > 0, "invalid BatchNorm2d channel count");
}

std::vector<Param*> BatchNorm2d::params() { return {&gamma_, &beta_}; }

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  TINYADC_CHECK(input.ndim() == 4 && input.dim(1) == channels_,
                "BatchNorm2d " << name() << ": bad input "
                               << shape_to_string(input.shape()));
  const std::int64_t n = input.dim(0);
  const std::int64_t hw = input.dim(2) * input.dim(3);
  const std::int64_t count = n * hw;
  input_shape_ = input.shape();

  Tensor mean({channels_});
  Tensor var({channels_});
  if (training) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      double s = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = input.data() + (b * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) s += p[i];
      }
      const double m = s / static_cast<double>(count);
      double v = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* p = input.data() + (b * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const double d = p[i] - m;
          v += d * d;
        }
      }
      mean.at(c) = static_cast<float>(m);
      var.at(c) = static_cast<float>(v / static_cast<double>(count));
      running_mean_.at(c) =
          (1.0F - momentum_) * running_mean_.at(c) + momentum_ * mean.at(c);
      running_var_.at(c) =
          (1.0F - momentum_) * running_var_.at(c) + momentum_ * var.at(c);
    }
  } else {
    mean.copy_from(running_mean_);
    var.copy_from(running_var_);
  }

  Tensor output(input_shape_);
  Tensor inv_std({channels_});
  const float* mean_d = mean.data();
  const float* var_d = var.data();
  float* inv_std_d = inv_std.data();
  for (std::int64_t c = 0; c < channels_; ++c)
    inv_std_d[c] = 1.0F / std::sqrt(var_d[c] + eps_);

  Tensor xhat = training ? Tensor(input_shape_) : Tensor();
  const float* gamma_d = gamma_.value.data();
  const float* beta_d = beta_.value.data();
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float m = mean_d[c];
      const float is = inv_std_d[c];
      const float g = gamma_d[c];
      const float bt = beta_d[c];
      const float* in = input.data() + (b * channels_ + c) * hw;
      float* out = output.data() + (b * channels_ + c) * hw;
      float* xh = training ? xhat.data() + (b * channels_ + c) * hw : nullptr;
      for (std::int64_t i = 0; i < hw; ++i) {
        const float normalized = (in[i] - m) * is;
        if (xh) xh[i] = normalized;
        out[i] = g * normalized + bt;
      }
    }
  }
  if (training) {
    xhat_ = std::move(xhat);
    inv_std_ = std::move(inv_std);
  }
  return output;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  TINYADC_CHECK(xhat_.numel() > 0,
                "BatchNorm2d " << name()
                               << ": backward without cached training forward");
  const std::int64_t n = input_shape_[0];
  const std::int64_t hw = input_shape_[2] * input_shape_[3];
  const std::int64_t count = n * hw;
  Tensor grad_input(input_shape_);

  for (std::int64_t c = 0; c < channels_; ++c) {
    // Reductions Σg and Σ(g·x̂) over the channel.
    double sum_g = 0.0;
    double sum_gx = 0.0;
    for (std::int64_t b = 0; b < n; ++b) {
      const float* g = grad_output.data() + (b * channels_ + c) * hw;
      const float* xh = xhat_.data() + (b * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum_g += g[i];
        sum_gx += static_cast<double>(g[i]) * xh[i];
      }
    }
    gamma_.grad.at(c) += static_cast<float>(sum_gx);
    beta_.grad.at(c) += static_cast<float>(sum_g);

    const float gam = gamma_.value.at(c);
    const float is = inv_std_.at(c);
    const float mean_g = static_cast<float>(sum_g / count);
    const float mean_gx = static_cast<float>(sum_gx / count);
    for (std::int64_t b = 0; b < n; ++b) {
      const float* g = grad_output.data() + (b * channels_ + c) * hw;
      const float* xh = xhat_.data() + (b * channels_ + c) * hw;
      float* gi = grad_input.data() + (b * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i)
        gi[i] = gam * is * (g[i] - mean_g - xh[i] * mean_gx);
    }
  }
  xhat_ = Tensor();
  return grad_input;
}


LayerPtr BatchNorm2d::clone() const {
  auto copy = std::make_unique<BatchNorm2d>(name(), channels_, eps_, momentum_);
  copy->gamma_.value.copy_from(gamma_.value);
  copy->beta_.value.copy_from(beta_.value);
  copy->running_mean_.copy_from(running_mean_);
  copy->running_var_.copy_from(running_var_);
  return copy;
}

}  // namespace tinyadc::nn
