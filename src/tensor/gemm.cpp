// Parallel, vectorized blocked SGEMM with fused epilogues.
//
// Structure (GotoBLAS-style): the output C is computed in MC x NC macro
// tiles; op(A)/op(B) panels are packed — alpha folded into the A pack —
// into contiguous, zero-padded micro-tile layouts so the micro kernel
// streams them linearly with the whole accumulator tile in vector
// registers. beta is folded into the first K-block visit of each tile and
// the optional epilogue (bias add / bias + ReLU) into the last, so C is
// touched exactly once per K block with no separate sweeps.
//
// The micro kernel itself is dispatched: the KernelRegistry picks the
// widest SIMD variant the CPU supports (kernels/microkernel.hpp), and the
// TileTuner picks which of the variant's registered MR x NR tiles — and
// which MC/NC macro blocking — runs fastest for this shape class. kBlockK
// stays pinned: it is the one blocking parameter that would change the
// floating-point summation tree. This TU builds with -ffp-contract=off for
// the same reason (see the determinism contract in microkernel.hpp).
//
// m == 1 (batch-1 linear layers) skips all of that: the GEMV path packs
// nothing, pads nothing and tunes nothing, streaming B once through the
// variant's sgemv kernel and storing through the same store_tile.
//
// Threading: the M (or N, whichever has more micro tiles) dimension is
// split into bands executed on the shared compute pool, each band packing
// into its own thread-local Workspace. C tiles are disjoint across bands
// and every C element accumulates its K blocks in the same order under any
// partition, so results are bit-identical for any thread count, any
// variant, and any tuned tile.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/time.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "tensor/workspace.hpp"

namespace dcn {
namespace {

// K-block extent. Pinned (never tuned): every C element must accumulate
// its K contributions in the same grouping for bit-identical results.
constexpr std::int64_t kBlockK = 256;

// Don't spawn a band for less work than this (~100us of compute); small
// GEMMs stay serial where pool latency would dominate.
constexpr double kMinFlopsPerBand = 8.0e6;

// m == 1 (the GEMV path): C columns per compute task, fixed by the shape
// alone. Below kMinParallelGemvMacs (400 KB of B, tens of microseconds on
// one core) the tasks run inline: pool dispatch would cost more than the
// split saves.
constexpr std::int64_t kGemvTaskCols = 64;
constexpr double kMinParallelGemvMacs = 1.0e5;
// Columns per sgemv kernel call. A transposed B is streamed 16 of its rows
// at a time: more concurrent row streams defeat the hardware prefetcher.
constexpr std::int64_t kGemvColsTransposed = 16;
static_assert(kGemvColsTransposed <= kGemvTaskCols);

// Probe caps for the tuner's measure callback. K is capped at one K block
// (the band loop repeats identically per block, so ranking is unchanged);
// N stays (nearly) full because macro-blocking behavior depends on the
// real row width — capping it made the tuner mispredict wide-N conv
// lowerings; M, which bands make interchangeable, shrinks to fit a flop
// budget that keeps a cold tune of one shape class around 100-300 ms.
constexpr std::int64_t kProbeMaxN = 16384;
constexpr double kProbeFlops = 2.7e8;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// The per-call kernel selection: which micro kernel runs the inner loops
/// and which macro blocking the band loop walks.
struct Blocking {
  const kernels::SgemmMicroKernel* kernel;
  std::int64_t mc;
  std::int64_t nc;
};

inline float load_a(const float* a, std::int64_t lda, bool trans,
                    std::int64_t row, std::int64_t col) {
  return trans ? a[col * lda + row] : a[row * lda + col];
}

// Pack a mb x kb panel of op(A), pre-scaled by alpha, into contiguous
// mr-row micro tiles (column-major within a tile) with zero-padded tail
// rows.
void pack_a(const float* a, std::int64_t lda, bool trans, float alpha,
            std::int64_t m0, std::int64_t mb, std::int64_t k0, std::int64_t kb,
            std::int64_t mr, float* __restrict packed) {
  for (std::int64_t i = 0; i < mb; i += mr) {
    const std::int64_t ib = std::min(mr, mb - i);
    if (ib == mr && !trans) {
      const float* rows = a + (m0 + i) * lda + k0;
      for (std::int64_t p = 0; p < kb; ++p) {
        for (std::int64_t ii = 0; ii < mr; ++ii) {
          packed[ii] = alpha * rows[ii * lda + p];
        }
        packed += mr;
      }
    } else if (ib == mr && trans) {
      // op(A) transposed: rows of the packed tile are contiguous in A.
      const float* src = a + k0 * lda + (m0 + i);
      for (std::int64_t p = 0; p < kb; ++p) {
        for (std::int64_t ii = 0; ii < mr; ++ii) {
          packed[ii] = alpha * src[ii];
        }
        src += lda;
        packed += mr;
      }
    } else {
      for (std::int64_t p = 0; p < kb; ++p) {
        for (std::int64_t ii = 0; ii < mr; ++ii) {
          *packed++ =
              ii < ib ? alpha * load_a(a, lda, trans, m0 + i + ii, k0 + p)
                      : 0.0f;
        }
      }
    }
  }
}

inline float load_b(const float* b, std::int64_t ldb, bool trans,
                    std::int64_t row, std::int64_t col) {
  return trans ? b[col * ldb + row] : b[row * ldb + col];
}

// Pack a kb x nb panel of op(B) into contiguous nr-column micro tiles with
// zero-padded tail columns.
void pack_b(const float* b, std::int64_t ldb, bool trans, std::int64_t k0,
            std::int64_t kb, std::int64_t n0, std::int64_t nb,
            std::int64_t nr, float* __restrict packed) {
  for (std::int64_t j = 0; j < nb; j += nr) {
    const std::int64_t jb = std::min(nr, nb - j);
    if (jb == nr && !trans) {
      const float* src = b + k0 * ldb + n0 + j;
      for (std::int64_t p = 0; p < kb; ++p) {
        std::memcpy(packed, src, static_cast<std::size_t>(nr) * sizeof(float));
        src += ldb;
        packed += nr;
      }
    } else {
      for (std::int64_t p = 0; p < kb; ++p) {
        for (std::int64_t jj = 0; jj < nr; ++jj) {
          *packed++ =
              jj < jb ? load_b(b, ldb, trans, k0 + p, n0 + j + jj) : 0.0f;
        }
      }
    }
  }
}

// Merge the accumulator (row-major, stride nr) into C with the
// beta/epilogue semantics of the K-block position: the first K block folds
// beta in (never reading C when beta == 0, so uninitialized output memory
// is safely overwritten), middle blocks accumulate, and the last block
// applies the fused epilogue while the tile is still hot. row_bias/col_bias
// are pre-offset to the tile.
void store_tile(float* __restrict c, std::int64_t ldc,
                const float* __restrict acc, std::int64_t nr, std::int64_t ib,
                std::int64_t jb, bool first, float beta,
                const GemmEpilogue* ep, const float* __restrict row_bias,
                const float* __restrict col_bias) {
  if (jb == nr && !ep) {
    if (!first) {  // interior K block: plain accumulate
      for (std::int64_t ii = 0; ii < ib; ++ii) {
        float* __restrict crow = c + ii * ldc;
        const float* __restrict arow = acc + ii * nr;
        for (std::int64_t jj = 0; jj < nr; ++jj) crow[jj] += arow[jj];
      }
      return;
    }
    if (beta == 0.0f) {  // first K block of a fresh output
      for (std::int64_t ii = 0; ii < ib; ++ii) {
        std::memcpy(c + ii * ldc, acc + ii * nr,
                    static_cast<std::size_t>(nr) * sizeof(float));
      }
      return;
    }
  }
  if (jb == nr && ep && first && beta == 0.0f) {
    // The layers' hot path: single K block, fresh output, fused epilogue.
    const bool relu = ep->relu;
    for (std::int64_t ii = 0; ii < ib; ++ii) {
      float* __restrict crow = c + ii * ldc;
      const float* __restrict arow = acc + ii * nr;
      const float rb = row_bias ? row_bias[ii] : 0.0f;
      if (col_bias) {
        for (std::int64_t jj = 0; jj < nr; ++jj) {
          float v = arow[jj] + rb + col_bias[jj];
          crow[jj] = relu && v < 0.0f ? 0.0f : v;
        }
      } else {
        for (std::int64_t jj = 0; jj < nr; ++jj) {
          float v = arow[jj] + rb;
          crow[jj] = relu && v < 0.0f ? 0.0f : v;
        }
      }
    }
    return;
  }
  // Generic path: edge tiles and the rarer beta/epilogue combinations.
  for (std::int64_t ii = 0; ii < ib; ++ii) {
    float* crow = c + ii * ldc;
    const float* arow = acc + ii * nr;
    for (std::int64_t jj = 0; jj < jb; ++jj) {
      float v = arow[jj];
      if (!first) {
        v += crow[jj];
      } else if (beta != 0.0f) {
        v += beta * crow[jj];
      }
      if (ep) {
        if (row_bias) v += row_bias[ii];
        if (col_bias) v += col_bias[jj];
        if (ep->relu && v < 0.0f) v = 0.0f;
      }
      crow[jj] = v;
    }
  }
}

struct GemmArgs {
  bool trans_a;
  bool trans_b;
  std::int64_t m, n, k;
  float alpha;
  const float* a;
  std::int64_t lda;
  const float* b;
  std::int64_t ldb;
  float beta;
  float* c;
  std::int64_t ldc;
  const GemmEpilogue* epilogue;  // nullptr when empty
};

// Compute C rows [m_lo, m_hi) x cols [n_lo, n_hi); pack buffers come from
// the executing thread's workspace so bands share no mutable state.
void gemm_band(const GemmArgs& g, const Blocking& blk, std::int64_t m_lo,
               std::int64_t m_hi, std::int64_t n_lo, std::int64_t n_hi) {
  const std::int64_t mr = blk.kernel->mr;
  const std::int64_t nr = blk.kernel->nr;
  const kernels::SgemmMicroFn micro = blk.kernel->fn;
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  const std::int64_t mc = std::min(blk.mc, m_hi - m_lo);
  const std::int64_t nc = std::min(blk.nc, n_hi - n_lo);
  const std::int64_t kc = std::min(kBlockK, g.k);
  float* packed_a =
      ws.floats(static_cast<std::size_t>(ceil_div(mc, mr) * mr * kc));
  float* packed_b =
      ws.floats(static_cast<std::size_t>(ceil_div(nc, nr) * nr * kc));
  alignas(64) float acc[kernels::kMaxMr * kernels::kMaxNr];
  for (std::int64_t k0 = 0; k0 < g.k; k0 += kc) {
    const std::int64_t kb = std::min(kc, g.k - k0);
    const bool first = k0 == 0;
    const GemmEpilogue* ep = (k0 + kb == g.k) ? g.epilogue : nullptr;
    for (std::int64_t n0 = n_lo; n0 < n_hi; n0 += nc) {
      const std::int64_t nb = std::min(nc, n_hi - n0);
      pack_b(g.b, g.ldb, g.trans_b, k0, kb, n0, nb, nr, packed_b);
      for (std::int64_t m0 = m_lo; m0 < m_hi; m0 += mc) {
        const std::int64_t mb = std::min(mc, m_hi - m0);
        pack_a(g.a, g.lda, g.trans_a, g.alpha, m0, mb, k0, kb, mr, packed_a);
        for (std::int64_t j = 0; j < nb; j += nr) {
          const std::int64_t jb = std::min(nr, nb - j);
          const float* pb = packed_b + (j / nr) * kb * nr;
          for (std::int64_t i = 0; i < mb; i += mr) {
            const std::int64_t ib = std::min(mr, mb - i);
            const float* pa = packed_a + (i / mr) * kb * mr;
            micro(kb, pa, pb, acc);
            const GemmEpilogue* tile_ep = ep;
            const float* row_bias =
                tile_ep && tile_ep->row_bias ? tile_ep->row_bias + m0 + i
                                             : nullptr;
            const float* col_bias =
                tile_ep && tile_ep->col_bias ? tile_ep->col_bias + n0 + j
                                             : nullptr;
            store_tile(g.c + (m0 + i) * g.ldc + (n0 + j), g.ldc, acc, nr, ib,
                       jb, first, g.beta, tile_ep, row_bias, col_bias);
          }
        }
      }
    }
  }
}

// m == 1: C columns [n_lo, n_hi) from x, A's row with alpha folded in.
// Each block of columns streams its part of B once, K block by K block,
// and is stored through store_tile as a one-row tile, so beta, the
// epilogue and K-block accumulation are the packed path's own code.
void gemv_band(const GemmArgs& g, kernels::SgemvFn sgemv, const float* x,
               std::int64_t n_lo, std::int64_t n_hi) {
  const std::int64_t cols = g.trans_b ? kGemvColsTransposed : kGemvTaskCols;
  alignas(64) float acc[kGemvTaskCols];
  for (std::int64_t n0 = n_lo; n0 < n_hi; n0 += cols) {
    const std::int64_t nb = std::min(cols, n_hi - n0);
    for (std::int64_t k0 = 0; k0 < g.k; k0 += kBlockK) {
      const std::int64_t kb = std::min(kBlockK, g.k - k0);
      sgemv(kb, nb, x + k0,
            g.trans_b ? g.b + n0 * g.ldb + k0 : g.b + k0 * g.ldb + n0, g.ldb,
            g.trans_b, acc);
      const GemmEpilogue* ep = (k0 + kb == g.k) ? g.epilogue : nullptr;
      store_tile(g.c + n0, g.ldc, acc, cols, 1, nb, k0 == 0, g.beta, ep,
                 ep ? ep->row_bias : nullptr,
                 ep && ep->col_bias ? ep->col_bias + n0 : nullptr);
    }
  }
}

// m == 1 (batch-1 linear layers): nothing is packed or padded and nothing
// is tuned. Fixed bands of kGemvTaskCols columns run on the compute pool.
void gemv(const GemmArgs& g) {
  const kernels::SgemvFn sgemv =
      kernels::KernelRegistry::global().active().sgemv;
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* x = ws.floats(static_cast<std::size_t>(g.k));
  for (std::int64_t p = 0; p < g.k; ++p) {
    x[p] = g.alpha * load_a(g.a, g.lda, g.trans_a, 0, p);
  }
  if (static_cast<double>(g.n) * static_cast<double>(g.k) <
      kMinParallelGemvMacs) {
    gemv_band(g, sgemv, x, 0, g.n);
    return;
  }
  const auto band = [&](int t) {
    const std::int64_t lo = static_cast<std::int64_t>(t) * kGemvTaskCols;
    gemv_band(g, sgemv, x, lo, std::min(g.n, lo + kGemvTaskCols));
  };
  run_compute_tasks(static_cast<int>(ceil_div(g.n, kGemvTaskCols)), band);
}

// beta-scale + epilogue sweep for the degenerate k == 0 / alpha == 0 cases
// where no K block ever visits the tiles.
void scale_epilogue_sweep(const GemmArgs& g) {
  for (std::int64_t i = 0; i < g.m; ++i) {
    float* row = g.c + i * g.ldc;
    const float rb =
        g.epilogue && g.epilogue->row_bias ? g.epilogue->row_bias[i] : 0.0f;
    for (std::int64_t j = 0; j < g.n; ++j) {
      float v = g.beta == 0.0f ? 0.0f : g.beta * row[j];
      if (g.epilogue) {
        v += rb;
        if (g.epilogue->col_bias) v += g.epilogue->col_bias[j];
        if (g.epilogue->relu && v < 0.0f) v = 0.0f;
      }
      row[j] = v;
    }
  }
}

// Times one candidate on a serial, class-representative synthetic problem.
// Correctness never depends on this measurement — every candidate is
// bit-identical — so noise can only cost speed.
double measure_candidate(const kernels::KernelVariant& variant,
                         const kernels::TileConfig& cfg, std::int64_t m,
                         std::int64_t n, std::int64_t k) {
  const kernels::SgemmMicroKernel* kern = variant.find_sgemm(cfg.mr, cfg.nr);
  if (kern == nullptr) return 1.0e30;
  const std::int64_t pk = std::min(k, kBlockK);
  const std::int64_t pn = std::min(n, kProbeMaxN);
  const std::int64_t budget_rows = static_cast<std::int64_t>(
      kProbeFlops /
      (2.0 * static_cast<double>(pn) * static_cast<double>(pk)));
  const std::int64_t pm = std::min(
      m, std::max<std::int64_t>(2 * kernels::kMaxMr, budget_rows));
  std::vector<float> a(static_cast<std::size_t>(pm * pk));
  std::vector<float> b(static_cast<std::size_t>(pk * pn));
  std::vector<float> c(static_cast<std::size_t>(pm * pn));
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 13) * 0.25f - 1.5f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>(i % 7) * 0.5f - 1.75f;
  }
  GemmArgs g{false,    false, pm,   pn,   pk,       1.0f,  a.data(),
             pk,       b.data(), pn, 0.0f, c.data(), pn,    nullptr};
  const Blocking blk{kern, cfg.mc, cfg.nc};
  // Small problems repeat inside the timed window until it covers the full
  // flop budget: sub-millisecond samples are mostly timer/scheduling
  // jitter, and a mis-ranked near-tie shows up as a pinned "tuned" tile
  // that loses to the default.
  const double flops =
      2.0 * static_cast<double>(pm) * static_cast<double>(pn) *
      static_cast<double>(pk);
  const int iters =
      static_cast<int>(std::max(1.0, std::min(64.0, kProbeFlops / flops)));
  WallTimer timer;
  for (int it = 0; it < iters; ++it) gemm_band(g, blk, 0, pm, 0, pn);
  return timer.milliseconds() / iters;
}

// Pick the micro kernel and macro blocking for this call: active registry
// variant, tuned tile for the shape class (memoized; see tuner.hpp).
Blocking select_blocking(std::int64_t m, std::int64_t n, std::int64_t k) {
  const kernels::KernelVariant& variant =
      kernels::KernelRegistry::global().active();
  const kernels::TileConfig cfg = kernels::TileTuner::global().choose(
      variant, 'f', m, n, k, [&](const kernels::TileConfig& c) {
        return measure_candidate(variant, c, m, n, k);
      });
  const kernels::SgemmMicroKernel* kern = variant.find_sgemm(cfg.mr, cfg.nr);
  if (kern == nullptr) kern = &variant.default_sgemm();
  return Blocking{kern, std::max(cfg.mc, kern->mr), std::max(cfg.nc, kern->nr)};
}

}  // namespace

void sgemm_ex(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
              std::int64_t k, float alpha, const float* a, std::int64_t lda,
              const float* b, std::int64_t ldb, float beta, float* c,
              std::int64_t ldc, const GemmEpilogue& epilogue) {
  DCN_CHECK(m >= 0 && n >= 0 && k >= 0) << "gemm dims " << m << 'x' << n
                                        << 'x' << k;
  // A and B are read only when k > 0; with k == 0 both are empty.
  DCN_CHECK(ldc >= n && (k == 0 || (lda >= (trans_a ? m : k) &&
                                    ldb >= (trans_b ? k : n))))
      << "gemm leading dims " << lda << '/' << ldb << '/' << ldc << " for "
      << m << 'x' << n << 'x' << k << " trans " << trans_a << trans_b;
  if (m == 0 || n == 0) return;

  GemmArgs args{trans_a, trans_b, m,    n,   k, alpha, a,
                lda,     b,       ldb,  beta, c, ldc,   nullptr};
  if (!epilogue.empty()) args.epilogue = &epilogue;

  if (k == 0 || alpha == 0.0f) {
    scale_epilogue_sweep(args);
    return;
  }

  if (m == 1) {
    gemv(args);
    return;
  }

  const Blocking blk = select_blocking(m, n, k);

  int bands = 1;
  const int threads = compute_threads();
  if (threads > 1 && !in_compute_worker()) {
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(n) * static_cast<double>(k);
    bands = static_cast<int>(std::min<double>(
        threads, std::max(1.0, flops / kMinFlopsPerBand)));
  }
  if (bands <= 1) {
    gemm_band(args, blk, 0, m, 0, n);
    return;
  }
  // Split whichever dimension has more micro tiles so bands stay wide
  // enough to amortize their packing.
  const std::int64_t tiles_m = ceil_div(m, blk.kernel->mr);
  const std::int64_t tiles_n = ceil_div(n, blk.kernel->nr);
  if (tiles_m >= tiles_n) {
    const std::int64_t rows =
        ceil_div(ceil_div(m, static_cast<std::int64_t>(bands)),
                 blk.kernel->mr) *
        blk.kernel->mr;
    const int actual = static_cast<int>(ceil_div(m, rows));
    run_compute_tasks(actual, [&](int t) {
      const std::int64_t lo = static_cast<std::int64_t>(t) * rows;
      gemm_band(args, blk, lo, std::min(m, lo + rows), 0, n);
    });
  } else {
    const std::int64_t cols =
        ceil_div(ceil_div(n, static_cast<std::int64_t>(bands)),
                 blk.kernel->nr) *
        blk.kernel->nr;
    const int actual = static_cast<int>(ceil_div(n, cols));
    run_compute_tasks(actual, [&](int t) {
      const std::int64_t lo = static_cast<std::int64_t>(t) * cols;
      gemm_band(args, blk, 0, m, lo, std::min(n, lo + cols));
    });
  }
}

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  sgemm_ex(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
           GemmEpilogue{});
}

void matmul(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
            std::int64_t k, const float* a, const float* b, float* c) {
  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;
  sgemm(trans_a, trans_b, m, n, k, 1.0f, a, lda, b, ldb, 0.0f, c, n);
}

void sgemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                     std::int64_t n, std::int64_t k, float alpha,
                     const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c,
                     std::int64_t ldc) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * ldc + j] = static_cast<float>(alpha * acc) +
                       beta * c[i * ldc + j];
    }
  }
}

}  // namespace dcn
