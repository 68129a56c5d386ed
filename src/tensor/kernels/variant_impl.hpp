// Shared kernel templates instantiated by each variant translation unit.
//
// Every kernel here is written with GCC/Clang generic vector extensions
// (vector_size types), so one template serves every ISA: the including TU's
// compile flags (-msse4.1 / -mavx2 / -mavx512f) decide the instructions.
// The lane width W is a template parameter; lanes always hold distinct
// output elements, so the per-element operation sequence — and therefore
// the output bits — is identical at every width (see microkernel.hpp).
//
// This header must only be included from variant_*.cpp files, which are
// all compiled with -ffp-contract=off: `acc += a * b` must stay a multiply
// followed by an add on every ISA (AVX-512 has embedded FMA forms the
// compiler would otherwise contract into).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "tensor/kernels/microkernel.hpp"

namespace dcn::kernels {

// Lane-width-specific vector types. GCC ignores a vector_size whose extent
// depends on a template parameter (the typedef silently collapses to the
// scalar), so the widths are enumerated as explicit specializations with
// literal sizes; the kernel templates below pull their types from V<W>.
// aligned(4)/aligned(1) keeps loads alignment-tolerant — packed panels only
// guarantee element alignment at tile edges.
template <int W>
struct V;
template <>
struct V<4> {
  typedef float vf __attribute__((vector_size(16), may_alias, aligned(4)));
  typedef std::int32_t vi
      __attribute__((vector_size(16), may_alias, aligned(4)));
  typedef std::uint32_t vu
      __attribute__((vector_size(16), may_alias, aligned(4)));
  typedef std::uint8_t vb
      __attribute__((vector_size(4), may_alias, aligned(1)));
  typedef std::int8_t vsb
      __attribute__((vector_size(4), may_alias, aligned(1)));
  typedef std::int16_t vs __attribute__((vector_size(8)));
};
template <>
struct V<8> {
  typedef float vf __attribute__((vector_size(32), may_alias, aligned(4)));
  typedef std::int32_t vi
      __attribute__((vector_size(32), may_alias, aligned(4)));
  typedef std::uint32_t vu
      __attribute__((vector_size(32), may_alias, aligned(4)));
  typedef std::uint8_t vb
      __attribute__((vector_size(8), may_alias, aligned(1)));
  typedef std::int8_t vsb
      __attribute__((vector_size(8), may_alias, aligned(1)));
  typedef std::int16_t vs __attribute__((vector_size(16)));
};
template <>
struct V<16> {
  typedef float vf __attribute__((vector_size(64), may_alias, aligned(4)));
  typedef std::int32_t vi
      __attribute__((vector_size(64), may_alias, aligned(4)));
  typedef std::uint32_t vu
      __attribute__((vector_size(64), may_alias, aligned(4)));
  typedef std::uint8_t vb
      __attribute__((vector_size(16), may_alias, aligned(1)));
  typedef std::int8_t vsb
      __attribute__((vector_size(16), may_alias, aligned(1)));
  typedef std::int16_t vs __attribute__((vector_size(32)));
};

/// Byte <-> int32 lane conversions, each through 16-bit lanes: GCC 12
/// vectorizes every 2x __builtin_convertvector step but lowers a direct 4x
/// one (char <-> int) lane by lane on SSE/AVX2. narrow() truncates, so its
/// callers clamp to the byte type's range first; every step is then exact.
template <int W, typename Bytes>
typename V<W>::vi widen(Bytes bytes) {
  return __builtin_convertvector(
      __builtin_convertvector(bytes, typename V<W>::vs), typename V<W>::vi);
}

template <typename Bytes, int W>
Bytes narrow(typename V<W>::vi lanes) {
  return __builtin_convertvector(
      __builtin_convertvector(lanes, typename V<W>::vs), Bytes);
}

// ---------------------------------------------------------------- SGEMM ---

/// Scalar micro kernel with constexpr trip counts (the generic variant and
/// tail widths). acc stride is NR.
template <int MR, int NR>
void sgemm_micro_scalar(std::int64_t kb, const float* __restrict pa,
                        const float* __restrict pb, float* __restrict acc) {
  float c[MR][NR] = {};
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* a_col = pa + p * MR;
    const float* b_row = pb + p * NR;
    for (int i = 0; i < MR; ++i) {
      const float av = a_col[i];
      for (int j = 0; j < NR; ++j) c[i][j] += av * b_row[j];
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NR; ++j) acc[i * NR + j] = c[i][j];
  }
}

/// Vector micro kernel: MR x NR accumulator held as MR x (NR/W) vectors of
/// W lanes. Loads are through an alignment-4 vector typedef, so packed
/// panels need only float alignment (the Workspace hands out 64-byte
/// aligned panels anyway).
template <int MR, int NR, int W>
void sgemm_micro_vec(std::int64_t kb, const float* __restrict pa,
                     const float* __restrict pb, float* __restrict acc) {
  static_assert(NR % W == 0, "tile width must be a multiple of the lanes");
  typedef typename V<W>::vf vf;
  constexpr int NV = NR / W;
  vf c[MR][NV] = {};
  for (std::int64_t p = 0; p < kb; ++p) {
    const float* a_col = pa + p * MR;
    const float* b_row = pb + p * NR;
    vf b[NV];
    for (int j = 0; j < NV; ++j) {
      b[j] = *reinterpret_cast<const vf*>(b_row + j * W);
    }
    for (int i = 0; i < MR; ++i) {
      const float av = a_col[i];  // broadcast against each b vector
      for (int j = 0; j < NV; ++j) c[i][j] += av * b[j];
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NV; ++j) {
      *reinterpret_cast<vf*>(acc + i * NR + j * W) = c[i][j];
    }
  }
}

// ---------------------------------------------------------------- SGEMV ---

/// Scalar batch-1 kernel (the generic variant, and the vector kernels' tail
/// columns): four columns per pass over the steps, so four running sums
/// overlap, each still summed in ascending p. Internal linkage: each variant
/// TU keeps its own copy built with its own ISA flags, where the linker
/// would keep one copy of an inline function for all of them and the
/// generic variant could run another ISA's instructions.
static inline void sgemv_scalar(std::int64_t kb, std::int64_t nb,
                                const float* __restrict x,
                                const float* __restrict b, std::int64_t ldb,
                                bool trans_b, float* __restrict acc) {
  const std::int64_t col_stride = trans_b ? ldb : 1;
  const std::int64_t step_stride = trans_b ? 1 : ldb;
  constexpr int kCols = 4;
  std::int64_t j = 0;
  for (; j + kCols <= nb; j += kCols) {
    float c[kCols] = {};
    for (std::int64_t p = 0; p < kb; ++p) {
      const float xp = x[p];
      const float* bp = b + p * step_stride + j * col_stride;
      for (int q = 0; q < kCols; ++q) c[q] += xp * bp[q * col_stride];
    }
    for (int q = 0; q < kCols; ++q) acc[j + q] = c[q];
  }
  for (; j < nb; ++j) {
    float c = 0.0f;
    for (std::int64_t p = 0; p < kb; ++p) {
      c += x[p] * b[p * step_stride + j * col_stride];
    }
    acc[j] = c;
  }
}

/// One round of the in-register transpose: each row pair (i, i + H), with
/// bit H of i clear, trades its H-lane blocks, which swaps bit H of the row
/// index with bit H of the lane index. The blocks stay inside 128-bit
/// halves until H reaches 4 lanes, so the SSE/AVX2 rounds are cheap
/// in-lane shuffles.
template <int W, int H, int... I>
void transpose_round(typename V<W>::vf* t, std::integer_sequence<int, I...>) {
  for (int i = 0; i < W; ++i) {
    if ((i & H) != 0) continue;
    const auto lo =
        __builtin_shufflevector(t[i], t[i + H], ((I & H) ? W + I - H : I)...);
    const auto hi =
        __builtin_shufflevector(t[i], t[i + H], ((I & H) ? W + I : I + H)...);
    t[i] = lo;
    t[i + H] = hi;
  }
}

/// In-register W x W transpose: lane s of t[r] moves to lane r of t[s]. The
/// rounds H = 1, 2, ..., W/2 swap every bit of the row index with the same
/// bit of the lane index. Data movement only: no value changes.
template <int W, int H = 1>
void transpose(typename V<W>::vf* t) {
  if constexpr (H < W) {
    transpose_round<W, H>(t, std::make_integer_sequence<int, W>{});
    transpose<W, 2 * H>(t);
  }
}

/// Vector batch-1 kernel, one column per lane. A plain B gives each step a
/// contiguous row segment: 4W columns per pass, like a micro tile's packed
/// B row. A transposed B holds each column's steps contiguously: W of its
/// rows are loaded W steps at a time and transposed in registers, so lane
/// r again sums column j + r in ascending p.
template <int W>
void sgemv_vec(std::int64_t kb, std::int64_t nb, const float* __restrict x,
               const float* __restrict b, std::int64_t ldb, bool trans_b,
               float* __restrict acc) {
  typedef typename V<W>::vf vf;
  std::int64_t j = 0;
  if (!trans_b) {
    constexpr int NV = 4;
    for (; j + NV * W <= nb; j += NV * W) {
      vf c[NV] = {};
      for (std::int64_t p = 0; p < kb; ++p) {
        const float xp = x[p];
        const float* row = b + p * ldb + j;
        for (int v = 0; v < NV; ++v) {
          c[v] += xp * *reinterpret_cast<const vf*>(row + v * W);
        }
      }
      for (int v = 0; v < NV; ++v) {
        *reinterpret_cast<vf*>(acc + j + v * W) = c[v];
      }
    }
    for (; j + W <= nb; j += W) {
      vf c = {};
      for (std::int64_t p = 0; p < kb; ++p) {
        c += x[p] * *reinterpret_cast<const vf*>(b + p * ldb + j);
      }
      *reinterpret_cast<vf*>(acc + j) = c;
    }
    sgemv_scalar(kb, nb - j, x, b + j, ldb, false, acc + j);
    return;
  }
  for (; j + W <= nb; j += W) {
    const float* rows = b + j * ldb;
    vf c = {};
    std::int64_t p = 0;
    for (; p + W <= kb; p += W) {
      vf t[W];
      for (int r = 0; r < W; ++r) {
        t[r] = *reinterpret_cast<const vf*>(rows + r * ldb + p);
      }
      transpose<W>(t);
      for (int s = 0; s < W; ++s) c += x[p + s] * t[s];
    }
    for (; p < kb; ++p) {
      vf column;
      for (int r = 0; r < W; ++r) column[r] = rows[r * ldb + p];
      c += x[p] * column;
    }
    *reinterpret_cast<vf*>(acc + j) = c;
  }
  sgemv_scalar(kb, nb - j, x, b + j * ldb, ldb, true, acc + j);
}

// ---------------------------------------------------------------- qgemm ---

/// Scalar qgemm micro kernel over the packed K-group layout of
/// microkernel.hpp (the generic variant).
template <int MR, int NR>
void qgemm_micro_scalar(std::int64_t kg, const std::int8_t* __restrict pa,
                        const std::uint8_t* __restrict pb,
                        std::int32_t* __restrict acc) {
  std::int32_t c[MR][NR] = {};
  for (std::int64_t g = 0; g < kg; ++g) {
    const std::int8_t* a = pa + g * MR * 4;
    const std::uint8_t* b = pb + g * NR * 4;
    for (int i = 0; i < MR; ++i) {
      for (int j = 0; j < NR; ++j) {
        for (int t = 0; t < 4; ++t) {
          c[i][j] += static_cast<std::int32_t>(a[i * 4 + t]) *
                     static_cast<std::int32_t>(b[j * 4 + t]);
        }
      }
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NR; ++j) acc[i * NR + j] = c[i][j];
  }
}

/// Widening qgemm micro kernel: each 32-bit lane of a packed B vector holds
/// one column's four K steps; step t is shifted out to an int32 lane and
/// multiplied by row i's broadcast weight. Every product and sum is exact
/// int32 — no saturating u8 x s8 -> s16 pair multiply (255 * 127 * 2 does
/// not fit in s16).
template <int MR, int NR, int W>
void qgemm_micro_vec(std::int64_t kg, const std::int8_t* __restrict pa,
                     const std::uint8_t* __restrict pb,
                     std::int32_t* __restrict acc) {
  static_assert(NR % W == 0, "tile width must be a multiple of the lanes");
  typedef typename V<W>::vi vi;
  typedef typename V<W>::vu vu;
  constexpr int NV = NR / W;
  vi c[MR][NV] = {};
  for (std::int64_t g = 0; g < kg; ++g) {
    const std::int8_t* a = pa + g * MR * 4;
    vu q[NV];
    for (int j = 0; j < NV; ++j) {
      q[j] = *reinterpret_cast<const vu*>(pb + (g * NR + j * W) * 4);
    }
    for (int t = 0; t < 4; ++t) {
      vi b[NV];
      for (int j = 0; j < NV; ++j) {
        b[j] = __builtin_convertvector((q[j] >> (8 * t)) & 0xffu, vi);
      }
      for (int i = 0; i < MR; ++i) {
        const std::int32_t av = a[i * 4 + t];
        for (int j = 0; j < NV; ++j) c[i][j] += av * b[j];
      }
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NV; ++j) {
      *reinterpret_cast<vi*>(acc + i * NR + j * W) = c[i][j];
    }
  }
}

inline void qdot_scalar(std::int64_t rows, std::int64_t k,
                        const std::int8_t* a, std::int64_t lda,
                        const std::uint8_t* b, std::int32_t* dot,
                        std::int32_t* sum) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int8_t* row = a + r * lda;
    std::int32_t d = 0;
    std::int32_t s = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      d += static_cast<std::int32_t>(row[p]) * static_cast<std::int32_t>(b[p]);
      s += row[p];
    }
    dot[r] = d;
    sum[r] = s;
  }
}

/// Batch-1 dot products, W bytes of a row per step widened to int32 lanes.
template <int W>
void qdot_vec(std::int64_t rows, std::int64_t k, const std::int8_t* a,
              std::int64_t lda, const std::uint8_t* b, std::int32_t* dot,
              std::int32_t* sum) {
  typedef typename V<W>::vi vi;
  typedef typename V<W>::vb vb;
  typedef typename V<W>::vsb vsb;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int8_t* row = a + r * lda;
    vi dv = {};
    vi sv = {};
    std::int64_t p = 0;
    for (; p + W <= k; p += W) {
      const vi av = widen<W>(*reinterpret_cast<const vsb*>(row + p));
      const vi bv = widen<W>(*reinterpret_cast<const vb*>(b + p));
      dv += av * bv;
      sv += av;
    }
    std::int32_t d = 0;
    std::int32_t s = 0;
    for (int l = 0; l < W; ++l) {
      d += dv[l];
      s += sv[l];
    }
    for (; p < k; ++p) {
      d += static_cast<std::int32_t>(row[p]) * static_cast<std::int32_t>(b[p]);
      s += row[p];
    }
    dot[r] = d;
    sum[r] = s;
  }
}

// ----------------------------------------------------------- accumulate ---

template <int W>
void accumulate_vec(std::int64_t n, const float* __restrict src,
                    float* __restrict dst) {
  typedef typename V<W>::vf vf;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    vf* d = reinterpret_cast<vf*>(dst + i);
    *d += *reinterpret_cast<const vf*>(src + i);
  }
  for (; i < n; ++i) dst[i] += src[i];
}

inline void accumulate_scalar(std::int64_t n, const float* __restrict src,
                              float* __restrict dst) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

// ------------------------------------------------------------- quantize ---

/// Round-to-nearest, ties away from zero, exactly matching std::lround for
/// every |v| < 2^30 (the scalar path's well-defined domain):
///   t = trunc(v); r = t + trunc(2 * (v - t))
/// v - t is exact (Sterbenz when |v| >= 1, trivially when t == 0), 2*frac
/// is exact, and trunc of it is -1/0/+1 — precisely the ties-away carry.
/// The naive trunc(v + 0.5) is NOT equivalent: adding 0.5 can round across
/// the integer boundary (e.g. v = 0.99999997f - 0.5f).
template <int W>
struct RoundAway {
  typedef typename V<W>::vf vf;
  typedef typename V<W>::vi vi;
  static vi round(vf v) {
    // Pre-clamp keeps the float->int conversions defined; any |v| this
    // large saturates the final u8/s8 clamp identically either way.
    const vf lim = vf{} + 1073741824.0f;  // 2^30
    v = v > lim ? lim : v;
    v = v < -lim ? -lim : v;
    const vi t = __builtin_convertvector(v, vi);
    const vf tf = __builtin_convertvector(t, vf);
    const vf frac2 = (v - tf) + (v - tf);
    return t + __builtin_convertvector(frac2, vi);
  }
};

template <int W>
void quantize_u8_vec(const float* src, std::int64_t n, float inv_scale,
                     float zp, std::uint8_t* dst) {
  using R = RoundAway<W>;
  typedef typename R::vf vf;
  typedef typename R::vi vi;
  typedef typename V<W>::vb vb;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    vf v = *reinterpret_cast<const vf*>(src + i);
    v = v * inv_scale + zp;
    vi r = R::round(v);
    r = r < 0 ? vi{} : r;
    r = r > 255 ? vi{} + 255 : r;
    *reinterpret_cast<vb*>(dst + i) = narrow<vb, W>(r);
  }
  for (; i < n; ++i) {
    const float v = src[i] * inv_scale + zp;
    const auto r = static_cast<std::int32_t>(std::lround(v));
    dst[i] = static_cast<std::uint8_t>(std::clamp(r, 0, 255));
  }
}

template <int W>
void quantize_s8_vec(const float* src, std::int64_t n, float inv_scale,
                     std::int8_t* dst) {
  using R = RoundAway<W>;
  typedef typename R::vf vf;
  typedef typename R::vi vi;
  typedef typename V<W>::vsb vsb;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    vf v = *reinterpret_cast<const vf*>(src + i);
    v = v * inv_scale;
    vi r = R::round(v);
    r = r < -127 ? vi{} - 127 : r;
    r = r > 127 ? vi{} + 127 : r;
    *reinterpret_cast<vsb*>(dst + i) = narrow<vsb, W>(r);
  }
  for (; i < n; ++i) {
    const auto r = static_cast<std::int32_t>(std::lround(src[i] * inv_scale));
    dst[i] = static_cast<std::int8_t>(std::clamp(r, -127, 127));
  }
}

}  // namespace dcn::kernels
