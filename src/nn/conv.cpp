#include "nn/conv.hpp"

#include "nn/init.hpp"
#include "runtime/parallel.hpp"
#include "tensor/gemm.hpp"

namespace tinyadc::nn {

namespace {

/// Reallocates `t` only when the element count changes (grow-only in the
/// steady state: training steps with a fixed batch size reuse the buffer).
void ensure_workspace(Tensor& t, Shape shape) {
  if (t.numel() != numel_of(shape)) {
    t = Tensor(std::move(shape));
  } else if (t.shape() != shape) {
    t = t.reshape(std::move(shape));
  }
}

}  // namespace

Conv2d::Conv2d(std::string name, std::int64_t in_channels,
               std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, bool bias, Rng& rng)
    : Conv2d(Uninit{}, std::move(name), in_channels, out_channels, kernel,
             stride, padding, bias) {
  kaiming_normal_(weight_.value, in_channels_ * kernel_ * kernel_, rng);
}

Conv2d::Conv2d(Uninit, std::string name, std::int64_t in_channels,
               std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, bool bias)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias) {
  TINYADC_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
                "invalid Conv2d dims");
  Tensor w({out_channels_, in_channels_, kernel_, kernel_});
  weight_ = Param(Layer::name() + ".weight", std::move(w));
  if (has_bias_) {
    bias_ = Param(Layer::name() + ".bias", Tensor::zeros({out_channels_}),
                  /*apply_decay=*/false);
  }
}

Param& Conv2d::bias() {
  TINYADC_CHECK(has_bias_, "Conv2d " << name() << " has no bias");
  return bias_;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

void Conv2d::set_batched(bool batched) {
  if (use_batched_ != batched) invalidate_cache();
  use_batched_ = batched;
}

void Conv2d::invalidate_cache() {
  cache_valid_ = false;
  cols_.clear();
}

void Conv2d::release_workspace() {
  invalidate_cache();
  ws_cols_ = Tensor();
  ws_out2d_ = Tensor();
  ws_gemm_.a.clear();
  ws_gemm_.a.shrink_to_fit();
  ws_gemm_.b.clear();
  ws_gemm_.b.shrink_to_fit();
  cols_.shrink_to_fit();
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  TINYADC_CHECK(input.ndim() == 4 && input.dim(1) == in_channels_,
                "Conv2d " << name() << ": bad input "
                          << shape_to_string(input.shape()));
  geom_ = ConvGeometry{in_channels_, input.dim(2), input.dim(3),
                       kernel_,      kernel_,      stride_,
                       padding_};
  input_shape_ = input.shape();
  if (!training && mvm_hook_ != nullptr) return forward_hooked(input);
  if (use_batched_) return forward_batched(input, training);
  return forward_reference(input, training);
}

Tensor Conv2d::forward_hooked(const Tensor& input) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t p = geom_.out_h() * geom_.out_w();
  cols_.clear();
  cache_valid_ = false;
  // The whole batch goes to the hook as one patch matrix; a transient
  // tensor rather than ws_cols_, so a large calibration batch leaves no
  // grown workspace behind.
  Tensor cols({geom_.patch_rows(), batch * p});
  im2col_batch(input.data(), batch, geom_, cols.data());
  const std::optional<Tensor> hooked = mvm_hook_(cols);
  if (!hooked.has_value()) {
    // Declined (e.g. activation calibration): one GEMM over the patch
    // matrix with one segment per sample reproduces the per-sample
    // reference GEMMs bit for bit, so calibrated ranges do not depend on
    // the batch or on set_batched.
    const Tensor w2d =
        weight_.value.reshape({out_channels_, geom_.patch_rows()});
    Tensor out2d({out_channels_, batch * p});
    gemm(w2d, false, cols, false, out2d, 1.0F, 0.0F, nullptr, p);
    return scatter_output(out2d.data(), batch);
  }
  TINYADC_CHECK(hooked->numel() == out_channels_ * batch * p,
                "Conv2d " << name() << ": MVM hook returned "
                          << shape_to_string(hooked->shape()) << ", expected ["
                          << out_channels_ << ", " << batch * p << "]");
  return scatter_output(hooked->data(), batch);
}

Tensor Conv2d::scatter_output(const float* src_base, std::int64_t batch) const {
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t p = oh * ow;
  const std::int64_t bp = batch * p;
  // Scatter [F, N·p] → (N, F, oh, ow), folding the bias in. Samples write
  // disjoint output blocks.
  Tensor output({batch, out_channels_, oh, ow});
  float* dst_base = output.data();
  const float* b = has_bias_ ? bias_.value.data() : nullptr;
  runtime::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      float* dst = dst_base + n * out_channels_ * p;
      for (std::int64_t f = 0; f < out_channels_; ++f) {
        const float* src = src_base + f * bp + n * p;
        const float bias_f = b != nullptr ? b[f] : 0.0F;
        for (std::int64_t i = 0; i < p; ++i) dst[f * p + i] = src[i] + bias_f;
      }
    }
  });
  return output;
}

Tensor Conv2d::forward_batched(const Tensor& input, bool training) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t p = oh * ow;
  const std::int64_t bp = batch * p;
  const std::int64_t rows = geom_.patch_rows();

  ensure_workspace(ws_cols_, {rows, bp});
  im2col_batch(input.data(), batch, geom_, ws_cols_.data());

  const Tensor w2d = weight_.value.reshape({out_channels_, rows});
  ensure_workspace(ws_out2d_, {out_channels_, bp});
  gemm(w2d, false, ws_cols_, false, ws_out2d_);

  Tensor output = scatter_output(ws_out2d_.data(), batch);
  cols_.clear();
  // Inference must not leave a stale training cache behind: a backward
  // without a fresh training forward asserts instead of reusing old cols.
  cache_valid_ = training;
  return output;
}

Tensor Conv2d::forward_reference(const Tensor& input, bool training) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t p = oh * ow;

  const Tensor w2d = weight_.value.reshape({out_channels_, geom_.patch_rows()});
  Tensor output({batch, out_channels_, oh, ow});
  const std::int64_t per_image = in_channels_ * geom_.in_h * geom_.in_w;
  if (training) {
    cols_.assign(static_cast<std::size_t>(batch), Tensor());
  } else {
    cols_.clear();
  }
  cache_valid_ = false;

  const auto run_sample = [&](std::int64_t n) {
    // View one sample as a 3-D image (copy: slices are not views here).
    Tensor image({in_channels_, geom_.in_h, geom_.in_w});
    std::copy(input.data() + n * per_image, input.data() + (n + 1) * per_image,
              image.data());
    Tensor cols = im2col(image, geom_);
    Tensor out2d({out_channels_, p});
    gemm(w2d, false, cols, false, out2d);
    float* dst = output.data() + n * out_channels_ * p;
    const float* src = out2d.data();
    if (has_bias_) {
      const float* b = bias_.value.data();
      for (std::int64_t f = 0; f < out_channels_; ++f)
        for (std::int64_t i = 0; i < p; ++i)
          dst[f * p + i] = src[f * p + i] + b[f];
    } else {
      std::copy(src, src + out_channels_ * p, dst);
    }
    if (training) cols_[static_cast<std::size_t>(n)] = std::move(cols);
  };

  // Samples are independent (disjoint output and cache slots), so the
  // batch fans out; the per-sample gemm then runs inline on its worker.
  runtime::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) run_sample(n);
  });
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (use_batched_) return backward_batched(grad_output);
  return backward_reference(grad_output);
}

Tensor Conv2d::backward_batched(const Tensor& grad_output) {
  TINYADC_CHECK(cache_valid_ && !input_shape_.empty(),
                "Conv2d " << name()
                          << ": backward without cached training forward "
                             "(did an eval forward intervene?)");
  const std::int64_t batch = input_shape_[0];
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t p = oh * ow;
  const std::int64_t bp = batch * p;
  const std::int64_t rows = geom_.patch_rows();
  TINYADC_CHECK(grad_output.ndim() == 4 && grad_output.dim(0) == batch &&
                    grad_output.dim(1) == out_channels_ &&
                    grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                "Conv2d " << name() << ": bad grad_output "
                          << shape_to_string(grad_output.shape()));
  TINYADC_CHECK(ws_cols_.numel() == rows * bp,
                "Conv2d " << name() << ": workspace does not match geometry");

  // Gather (N, F, oh, ow) → [F, N·p]: samples own disjoint column blocks.
  ensure_workspace(ws_out2d_, {out_channels_, bp});
  {
    float* dst_base = ws_out2d_.data();
    const float* src_base = grad_output.data();
    runtime::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
      for (std::int64_t n = n0; n < n1; ++n) {
        const float* src = src_base + n * out_channels_ * p;
        for (std::int64_t f = 0; f < out_channels_; ++f)
          std::copy(src + f * p, src + (f + 1) * p,
                    dst_base + f * bp + n * p);
      }
    });
  }

  // dL/dW += gout · colsᵀ — one GEMM over the whole batch. The k loop runs
  // the full N·p extent in a fixed order inside each output row, so dW is
  // bit-identical at any thread count (gemm's globally-aligned row tiles).
  const Tensor w2d = weight_.value.reshape({out_channels_, rows});
  Tensor gw2d = weight_.grad.reshape({out_channels_, rows});  // shares storage
  gemm(ws_out2d_, false, ws_cols_, true, gw2d, 1.0F, 1.0F, &ws_gemm_);

  if (has_bias_) {
    // Filters own disjoint bias slots; each sums its row in a fixed order.
    float* gb = bias_.grad.data();
    const float* g = ws_out2d_.data();
    runtime::parallel_for(
        0, out_channels_, 1, [&](std::int64_t f0, std::int64_t f1) {
          for (std::int64_t f = f0; f < f1; ++f) {
            double acc = 0.0;
            const float* row = g + f * bp;
            for (std::int64_t i = 0; i < bp; ++i) acc += row[i];
            gb[f] += static_cast<float>(acc);
          }
        });
  }

  // dL/dcols = Wᵀ · gout, written over the im2col workspace (its contents
  // are no longer needed once dW is accumulated), then scattered back to
  // images per sample.
  gemm(w2d, true, ws_out2d_, false, ws_cols_, 1.0F, 0.0F, &ws_gemm_);
  Tensor grad_input(input_shape_);
  col2im_batch(ws_cols_.data(), batch, geom_, grad_input.data());
  cache_valid_ = false;
  return grad_input;
}

Tensor Conv2d::backward_reference(const Tensor& grad_output) {
  TINYADC_CHECK(!input_shape_.empty() && !cols_.empty(),
                "Conv2d " << name()
                          << ": backward without cached training forward");
  const std::int64_t batch = input_shape_[0];
  TINYADC_CHECK(static_cast<std::int64_t>(cols_.size()) == batch,
                "Conv2d " << name()
                          << ": backward without cached training forward");
  const std::int64_t oh = geom_.out_h();
  const std::int64_t ow = geom_.out_w();
  const std::int64_t p = oh * ow;
  TINYADC_CHECK(grad_output.ndim() == 4 && grad_output.dim(0) == batch &&
                    grad_output.dim(1) == out_channels_ &&
                    grad_output.dim(2) == oh && grad_output.dim(3) == ow,
                "Conv2d " << name() << ": bad grad_output "
                          << shape_to_string(grad_output.shape()));

  const std::int64_t rows = geom_.patch_rows();
  const Tensor w2d = weight_.value.reshape({out_channels_, rows});
  Tensor gw2d = weight_.grad.reshape({out_channels_, rows});  // shares storage
  Tensor grad_input(input_shape_);
  const std::int64_t per_image = in_channels_ * geom_.in_h * geom_.in_w;

  for (std::int64_t n = 0; n < batch; ++n) {
    Tensor gout2d({out_channels_, p});
    std::copy(grad_output.data() + n * out_channels_ * p,
              grad_output.data() + (n + 1) * out_channels_ * p,
              gout2d.data());
    // dL/dW += gout · colsᵀ
    gemm(gout2d, false, cols_[n], true, gw2d, 1.0F, 1.0F);
    if (has_bias_) {
      float* gb = bias_.grad.data();
      const float* g = gout2d.data();
      for (std::int64_t f = 0; f < out_channels_; ++f) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < p; ++i) acc += g[f * p + i];
        gb[f] += static_cast<float>(acc);
      }
    }
    // dL/dcols = Wᵀ · gout, then scatter back to the image.
    Tensor gcols({rows, p});
    gemm(w2d, true, gout2d, false, gcols);
    Tensor gimage = col2im(gcols, geom_);
    std::copy(gimage.data(), gimage.data() + per_image,
              grad_input.data() + n * per_image);
  }
  cols_.clear();
  return grad_input;
}

LayerPtr Conv2d::clone() const {
  auto copy = std::unique_ptr<Conv2d>(
      new Conv2d(Uninit{}, name(), in_channels_, out_channels_, kernel_,
                 stride_, padding_, has_bias_));
  copy->use_batched_ = use_batched_;
  copy->weight_.value.copy_from(weight_.value);
  if (has_bias_) copy->bias_.value.copy_from(bias_.value);
  return copy;
}

}  // namespace tinyadc::nn
