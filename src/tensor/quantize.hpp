// Post-training quantization primitives: float <-> int8 conversion.
//
// Convention (gemmlowp/ONNX-style, documented in DESIGN.md "Quantization
// model"): activations are asymmetric uint8 with a per-tensor affine map
//   real = scale * (q - zero_point),   q in [0, 255],
// chosen so that 0.0 is exactly representable (padding zeros and ReLU
// outputs quantize without bias error). Weights are symmetric int8 with
// zero point 0 and one scale per output channel (per-row of the GEMM's
// left operand, matching TensorRT/FBGEMM):
//   real = scale_c * q,   q in [-127, 127]  (-128 is never produced).
#pragma once

#include <cstdint>
#include <vector>

namespace dcn {

/// Per-tensor affine quantization parameters for uint8 activations.
struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;

  /// real -> nearest representable uint8.
  std::uint8_t quantize(float x) const;
  /// uint8 -> real.
  float dequantize(std::uint8_t q) const {
    return scale * (static_cast<float>(q) -
                    static_cast<float>(zero_point));
  }
};

/// Affine uint8 parameters covering [min, max]. The range is widened to
/// include 0 and the zero point is nudged to an exact integer, so 0.0
/// round-trips exactly. Degenerate ranges (min == max == 0) yield
/// scale = 1, zero_point = 0.
QuantParams choose_quant_params(float min_value, float max_value);

/// Elementwise float -> uint8 (round-to-nearest, saturating).
void quantize_u8(const float* src, std::int64_t n, const QuantParams& params,
                 std::uint8_t* dst);

/// Symmetric int8 scale for values in [-max_abs, max_abs]: max_abs / 127
/// (1 when max_abs == 0, so zeros stay zeros).
float symmetric_scale(float max_abs);

/// Elementwise float -> int8 with a symmetric scale (round-to-nearest,
/// saturating to [-127, 127]).
void quantize_s8(const float* src, std::int64_t n, float scale,
                 std::int8_t* dst);

/// A weight matrix quantized to symmetric int8, one scale per row (per
/// output channel). Rows are the GEMM's M dimension: conv filters reshaped
/// to [out_channels, in_c*k*k], linear weights as stored [out_features,
/// in_features].
struct QuantizedWeights {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int8_t> data;  // [rows, cols] row-major
  std::vector<float> scales;      // size rows
};

/// Quantize a [rows, cols] float matrix with one symmetric scale per row.
QuantizedWeights quantize_weights_per_channel(const float* w,
                                              std::int64_t rows,
                                              std::int64_t cols);

}  // namespace dcn
