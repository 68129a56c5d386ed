// Quantized int8 GEMM with a fused dequantize+bias+ReLU epilogue.
//
// The INT8 inference analog of sgemm_ex: symmetric int8 weights on the left
// (per-output-channel scales), affine uint8 activations on the right,
// int32 accumulation, and a float output produced by a fused epilogue —
// the quantized counterpart of the GemmEpilogue seam, so no separate
// dequant/bias/activation sweeps ever touch the output.
//
//   C[m,n] = epi( a_scales[m] * b.scale *
//                 ( sum_k A[m,k] * B[k,n]  -  b.zero_point * rowsum_A[m] ) )
//
// The zero-point correction uses the algebraic identity
// sum_k A[m,k]*(B[k,n]-zp) = sum_k A[m,k]*B[k,n] - zp*sum_k A[m,k], so the
// inner loop is a plain u8*s8 dot product. Accumulation is exact integer
// arithmetic (K is bounded so int32 cannot overflow) and every C element is
// produced by one float expression, so results are bit-identical across
// thread counts, kernel variants, tiles and runs by construction; the work
// split is fixed by the shape regardless of the partition (DESIGN.md
// "The qgemm kernel").
#pragma once

#include <cstdint>

#include "tensor/quantize.hpp"

namespace dcn {

/// Fused into the dequantizing store of each output element.
struct QuantEpilogue {
  /// If set, row_bias[i] (float) is added to every element of row i — a
  /// conv layer's per-output-channel bias, a linear layer's per-feature
  /// bias over the transposed [out, batch] output.
  const float* row_bias = nullptr;
  /// Apply max(x, 0) after the bias.
  bool relu = false;

  bool empty() const { return !row_bias && !relu; }
};

/// C(float)[m x n] = epilogue(dequant(A_s8[m x k] * (B_u8[k x n] - zp))).
/// A is row-major with leading dimension lda and symmetric scales
/// (`a_scale_count` == m for per-channel, 1 for per-tensor); B is row-major
/// uint8 with per-tensor affine `b_params`; C is row-major float. Requires
/// k <= 66311, the largest K whose int32 sums cannot overflow
/// (k * 255 * 127 < 2^31), and a zero point in [0, 255]; otherwise throws.
void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const float* a_scales,
           std::int64_t a_scale_count, const std::uint8_t* b,
           std::int64_t ldb, const QuantParams& b_params, float* c,
           std::int64_t ldc, const QuantEpilogue& epilogue = {});

/// Convenience: quantized weight matrix as the left operand.
void qgemm(const QuantizedWeights& weights, const std::uint8_t* b,
           std::int64_t n, std::int64_t ldb, const QuantParams& b_params,
           float* c, std::int64_t ldc, const QuantEpilogue& epilogue = {});

/// Reference triple loop implementing the identical contract; tests compare
/// the blocked kernel against it bit-for-bit.
void qgemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const float* a_scales, std::int64_t a_scale_count,
                     const std::uint8_t* b, std::int64_t ldb,
                     const QuantParams& b_params, float* c, std::int64_t ldc,
                     const QuantEpilogue& epilogue = {});

}  // namespace dcn
