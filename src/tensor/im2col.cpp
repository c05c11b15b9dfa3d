#include "im2col.hpp"

#include <algorithm>
#include <vector>

#include "runtime/parallel.hpp"

namespace tinyadc {

namespace {

void check_geometry(const ConvGeometry& g) {
  TINYADC_CHECK(g.in_channels > 0 && g.in_h > 0 && g.in_w > 0,
                "invalid input dims");
  TINYADC_CHECK(g.kernel_h > 0 && g.kernel_w > 0, "invalid kernel dims");
  TINYADC_CHECK(g.stride > 0, "stride must be positive");
  TINYADC_CHECK(g.padding >= 0, "padding must be non-negative");
  TINYADC_CHECK(g.out_h() > 0 && g.out_w() > 0,
                "kernel larger than padded input");
}

}  // namespace

Tensor im2col(const Tensor& input, const ConvGeometry& g) {
  check_geometry(g);
  TINYADC_CHECK(input.ndim() == 3 && input.dim(0) == g.in_channels &&
                    input.dim(1) == g.in_h && input.dim(2) == g.in_w,
                "im2col input " << shape_to_string(input.shape())
                                << " does not match geometry");
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  Tensor cols({g.patch_rows(), g.patch_cols()});
  const float* in = input.data();
  float* out = cols.data();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* orow = out + row * oh * ow;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride - g.padding + kh;
          if (iy < 0 || iy >= g.in_h) {
            for (std::int64_t x = 0; x < ow; ++x) orow[y * ow + x] = 0.0F;
            continue;
          }
          const float* irow = in + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride - g.padding + kw;
            orow[y * ow + x] =
                (ix >= 0 && ix < g.in_w) ? irow[ix] : 0.0F;
          }
        }
      }
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, const ConvGeometry& g) {
  check_geometry(g);
  TINYADC_CHECK(cols.ndim() == 2 && cols.dim(0) == g.patch_rows() &&
                    cols.dim(1) == g.patch_cols(),
                "col2im input " << shape_to_string(cols.shape())
                                << " does not match geometry");
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  Tensor image({g.in_channels, g.in_h, g.in_w});
  const float* in = cols.data();
  float* out = image.data();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* irow = in + row * oh * ow;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride - g.padding + kh;
          if (iy < 0 || iy >= g.in_h) continue;
          float* orow = out + (c * g.in_h + iy) * g.in_w;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t ix = x * g.stride - g.padding + kw;
            if (ix >= 0 && ix < g.in_w) orow[ix] += irow[y * ow + x];
          }
        }
      }
    }
  }
  return image;
}

void im2col_batch(const float* input, std::int64_t batch,
                  const ConvGeometry& g, float* out) {
  check_geometry(g);
  TINYADC_CHECK(input != nullptr && out != nullptr, "im2col_batch null data");
  TINYADC_CHECK(batch > 0, "im2col_batch batch must be positive");
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t p = oh * ow;
  const std::int64_t bp = batch * p;
  // Zero-pad every image first, so each patch row is a plain strided copy
  // with no bounds tests (for stride 1 a contiguous one): the feature maps
  // are small and a per-element bounds test costs more than the copy.
  const std::int64_t hp = g.in_h + 2 * g.padding;
  const std::int64_t wp = g.in_w + 2 * g.padding;
  const std::int64_t per_padded = g.in_channels * hp * wp;
  std::vector<float> padded;
  const float* src = input;
  if (g.padding > 0) {
    padded.assign(static_cast<std::size_t>(batch * per_padded), 0.0F);
    // Planes (sample, channel) are disjoint, so large batches fan out.
    const auto pad_planes = [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i)
        for (std::int64_t y = 0; y < g.in_h; ++y) {
          const float* row = input + (i * g.in_h + y) * g.in_w;
          std::copy(row, row + g.in_w,
                    padded.data() + (i * hp + y + g.padding) * wp + g.padding);
        }
    };
    const std::int64_t plane_grain =
        std::max<std::int64_t>(1, 16384 / (g.in_h * g.in_w));
    runtime::parallel_for(0, batch * g.in_channels, plane_grain, pad_planes);
    src = padded.data();
  }
  // Each patch row (c, kh, kw) owns one disjoint output row across all
  // samples; the fill order within a row never depends on the partition.
  const std::int64_t grain =
      std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, bp));
  runtime::parallel_for(
      0, g.patch_rows(), grain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
          const std::int64_t kw = row % g.kernel_w;
          const std::int64_t kh = (row / g.kernel_w) % g.kernel_h;
          const std::int64_t c = row / (g.kernel_w * g.kernel_h);
          float* odst = out + row * bp;
          for (std::int64_t n = 0; n < batch; ++n) {
            const float* plane = src + n * per_padded + c * hp * wp;
            for (std::int64_t y = 0; y < oh; ++y, odst += ow) {
              const float* irow = plane + (y * g.stride + kh) * wp + kw;
              for (std::int64_t x = 0; x < ow; ++x)
                odst[x] = irow[x * g.stride];
            }
          }
        }
      });
}

void col2im_batch(const float* cols, std::int64_t batch, const ConvGeometry& g,
                  float* images) {
  check_geometry(g);
  TINYADC_CHECK(cols != nullptr && images != nullptr, "col2im_batch null data");
  TINYADC_CHECK(batch > 0, "col2im_batch batch must be positive");
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t p = oh * ow;
  const std::int64_t bp = batch * p;
  const std::int64_t per_image = g.in_channels * g.in_h * g.in_w;
  // Samples write disjoint images; the scatter within a sample is serial.
  runtime::parallel_for(0, batch, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      float* out = images + n * per_image;
      std::fill(out, out + per_image, 0.0F);
      std::int64_t row = 0;
      for (std::int64_t c = 0; c < g.in_channels; ++c) {
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
          for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
            const float* irow = cols + row * bp + n * p;
            for (std::int64_t y = 0; y < oh; ++y) {
              const std::int64_t iy = y * g.stride - g.padding + kh;
              if (iy < 0 || iy >= g.in_h) continue;
              float* orow = out + (c * g.in_h + iy) * g.in_w;
              for (std::int64_t x = 0; x < ow; ++x) {
                const std::int64_t ix = x * g.stride - g.padding + kw;
                if (ix >= 0 && ix < g.in_w) orow[ix] += irow[y * ow + x];
              }
            }
          }
        }
      }
    }
  });
}

}  // namespace tinyadc
