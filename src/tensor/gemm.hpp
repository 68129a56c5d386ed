// Single-precision GEMM — the tensor engine's workhorse.
//
// Convolution (via im2col) and the fully-connected layers lower onto this
// kernel, so it is the numerical workhorse of both training and inference.
// The implementation is a cache-blocked, register-tiled, SIMD-vectorized
// SGEMM with optional transposes, partitioned across the shared compute
// pool (core/parallel). It is intentionally dependency-free (no BLAS) so
// builds are hermetic.
//
// Determinism: output C tiles are disjoint across threads and every C
// element accumulates its K contributions in the same fixed order for any
// partition, so results are bit-identical for any thread count. (With
// DCN_NATIVE_KERNELS=ON the kernels are tuned for the build host, so bit
// patterns are reproducible per machine, not across machines.)
#pragma once

#include <cstdint>

namespace dcn {

/// Optional operation fused into the C-tile store of the final K block,
/// applied while the tile is register/cache hot. Replaces the separate
/// bias/activation sweeps the layers used to run over the full output.
struct GemmEpilogue {
  /// If set, row_bias[i] is added to every element of row i (a conv layer's
  /// per-output-channel bias over the [oc, oh*ow] output).
  const float* row_bias = nullptr;
  /// If set, col_bias[j] is added to every element of column j (a linear
  /// layer's per-feature bias over the [batch, out] output).
  const float* col_bias = nullptr;
  /// Apply max(x, 0) after the bias terms.
  bool relu = false;

  bool empty() const { return !row_bias && !col_bias && !relu; }
};

/// C = alpha * op(A) * op(B) + beta * C.
/// A is m×k after the optional transpose, B is k×n, C is m×n; all row-major
/// with leading dimensions lda/ldb/ldc (the stride between rows of the
/// *stored* matrix, i.e. pre-transpose). Each must be at least its stored
/// matrix's row width — lda >= (trans_a ? m : k), ldb >= (trans_b ? k : n),
/// ldc >= n — or the call throws; lda and ldb are not checked when k == 0,
/// where A and B are empty.
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// sgemm with a fused epilogue: epilogue(alpha * op(A) * op(B) + beta * C).
/// The epilogue is applied exactly once per C element, fused into the last
/// K-block store (or a single sweep in the degenerate k == 0 / alpha == 0
/// cases).
void sgemm_ex(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
              std::int64_t k, float alpha, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c,
              std::int64_t ldc, const GemmEpilogue& epilogue);

/// Convenience wrapper for contiguous row-major matrices:
/// C[m×n] = op(A) * op(B) with natural leading dimensions.
void matmul(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
            std::int64_t k, const float* a, const float* b, float* c);

/// Reference triple-loop GEMM used by tests to validate the blocked kernel.
void sgemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha,
                     const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c, std::int64_t ldc);

/// The pre-threading scalar blocked kernel (the engine as of PR 2), kept in
/// a separately-compiled translation unit with the project's generic flags.
/// Benchmarks use it as the speedup baseline; tests use it as a second
/// reference implementation.
void sgemm_blocked_scalar(bool trans_a, bool trans_b, std::int64_t m,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, float beta, float* c,
                          std::int64_t ldc);

}  // namespace dcn
