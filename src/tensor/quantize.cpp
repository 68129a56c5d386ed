#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "tensor/kernels/registry.hpp"

namespace dcn {
namespace {

// Round-to-nearest with ties away from zero (std::lround semantics),
// saturated to [lo, hi].
std::int32_t round_clamp(float x, std::int32_t lo, std::int32_t hi) {
  const auto r = static_cast<std::int32_t>(std::lround(x));
  return std::clamp(r, lo, hi);
}

}  // namespace

std::uint8_t QuantParams::quantize(float x) const {
  return static_cast<std::uint8_t>(
      round_clamp(x / scale + static_cast<float>(zero_point), 0, 255));
}

QuantParams choose_quant_params(float min_value, float max_value) {
  DCN_CHECK(min_value <= max_value)
      << "quant range [" << min_value << ", " << max_value << "]";
  // Widen to include 0 so the zero point lands inside [0, 255] and 0.0 is
  // exactly representable (padding taps, ReLU outputs).
  const double lo = std::min(0.0, static_cast<double>(min_value));
  const double hi = std::max(0.0, static_cast<double>(max_value));
  QuantParams params;
  if (hi == lo) {  // all-zero tensor
    params.scale = 1.0f;
    params.zero_point = 0;
    return params;
  }
  params.scale = static_cast<float>((hi - lo) / 255.0);
  // Nudge the zero point to the nearest integer; the scale keeps the full
  // range representable up to one step of rounding slack at each end.
  params.zero_point = round_clamp(
      static_cast<float>(-lo / (static_cast<double>(hi) - lo) * 255.0), 0,
      255);
  return params;
}

// The bulk loops below dispatch to the active SIMD variant. The vector
// kernels reproduce std::lround's ties-away rounding bit-exactly (see
// kernels/variant_impl.hpp), so every variant quantizes identically to the
// scalar round_clamp above — pinned by test_kernels.
void quantize_u8(const float* src, std::int64_t n, const QuantParams& params,
                 std::uint8_t* dst) {
  const float inv_scale = 1.0f / params.scale;
  const auto zp = static_cast<float>(params.zero_point);
  kernels::KernelRegistry::global().active().quantize_u8(src, n, inv_scale,
                                                         zp, dst);
}

float symmetric_scale(float max_abs) {
  DCN_CHECK(max_abs >= 0.0f) << "max_abs " << max_abs;
  return max_abs == 0.0f ? 1.0f : max_abs / 127.0f;
}

void quantize_s8(const float* src, std::int64_t n, float scale,
                 std::int8_t* dst) {
  const float inv_scale = 1.0f / scale;
  kernels::KernelRegistry::global().active().quantize_s8(src, n, inv_scale,
                                                         dst);
}

QuantizedWeights quantize_weights_per_channel(const float* w,
                                              std::int64_t rows,
                                              std::int64_t cols) {
  DCN_CHECK(rows > 0 && cols > 0) << "weights [" << rows << ", " << cols
                                  << "]";
  QuantizedWeights q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(static_cast<std::size_t>(rows * cols));
  q.scales.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    float max_abs = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) {
      max_abs = std::max(max_abs, std::abs(w[r * cols + c]));
    }
    const float scale = symmetric_scale(max_abs);
    q.scales[static_cast<std::size_t>(r)] = scale;
    quantize_s8(w + r * cols, cols, scale, q.data.data() + r * cols);
  }
  return q;
}

}  // namespace dcn
