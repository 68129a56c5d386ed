#include "detect/imageops.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace dcn::detect {

Tensor bilinear_resize(const Tensor& image, std::int64_t out_h,
                       std::int64_t out_w) {
  DCN_CHECK(image.rank() == 3) << "resize expects [C, H, W]";
  DCN_CHECK(out_h > 0 && out_w > 0) << "resize target";
  const std::int64_t channels = image.dim(0);
  const std::int64_t h = image.dim(1);
  const std::int64_t w = image.dim(2);
  Tensor out(Shape{channels, out_h, out_w});
  const double sy = out_h > 1 ? static_cast<double>(h - 1) / (out_h - 1) : 0.0;
  const double sx = out_w > 1 ? static_cast<double>(w - 1) / (out_w - 1) : 0.0;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* src = image.data() + c * h * w;
    float* dst = out.data() + c * out_h * out_w;
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      const double fy = oy * sy;
      const std::int64_t y0 = static_cast<std::int64_t>(fy);
      const std::int64_t y1 = std::min(y0 + 1, h - 1);
      const double ty = fy - y0;
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        const double fx = ox * sx;
        const std::int64_t x0 = static_cast<std::int64_t>(fx);
        const std::int64_t x1 = std::min(x0 + 1, w - 1);
        const double tx = fx - x0;
        const double top =
            src[y0 * w + x0] + (src[y0 * w + x1] - src[y0 * w + x0]) * tx;
        const double bot =
            src[y1 * w + x0] + (src[y1 * w + x1] - src[y1 * w + x0]) * tx;
        dst[oy * out_w + ox] = static_cast<float>(top + (bot - top) * ty);
      }
    }
  }
  return out;
}

Tensor crop_box(const Tensor& image, const float box[4]) {
  DCN_CHECK(image.rank() == 3) << "crop_box expects [C, H, W]";
  const std::int64_t channels = image.dim(0);
  const std::int64_t h = image.dim(1);
  const std::int64_t w = image.dim(2);
  std::int64_t x0 = static_cast<std::int64_t>((box[0] - box[2] / 2) * w);
  std::int64_t x1 = static_cast<std::int64_t>((box[0] + box[2] / 2) * w);
  std::int64_t y0 = static_cast<std::int64_t>((box[1] - box[3] / 2) * h);
  std::int64_t y1 = static_cast<std::int64_t>((box[1] + box[3] / 2) * h);
  x0 = std::clamp<std::int64_t>(x0, 0, w - 2);
  y0 = std::clamp<std::int64_t>(y0, 0, h - 2);
  x1 = std::clamp<std::int64_t>(x1, x0 + 2, w);
  y1 = std::clamp<std::int64_t>(y1, y0 + 2, h);
  Tensor out(Shape{channels, y1 - y0, x1 - x0});
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* src = image.data() + c * h * w;
    float* dst = out.data() + c * (y1 - y0) * (x1 - x0);
    for (std::int64_t r = y0; r < y1; ++r) {
      for (std::int64_t cc = x0; cc < x1; ++cc) {
        dst[(r - y0) * (x1 - x0) + (cc - x0)] = src[r * w + cc];
      }
    }
  }
  return out;
}

}  // namespace dcn::detect
