#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/time.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "tensor/workspace.hpp"

namespace dcn {
namespace {

// Largest K whose int32 sums are exact: with |a| <= 127 and b, zp in
// [0, 255], sum_k a*b, zp*rowsum and their difference all stay within
// k * 255 * 127, which is below 2^31 up to here. Past it the accumulators
// would overflow (undefined behaviour) while qgemm_reference, which sums in
// int64, would not.
constexpr std::int64_t kMaxK = 66311;
// Rows x columns of C per compute task. Fixed by the shape alone — never
// by the thread count or the tuned tile — so the decomposition is the same
// under any partition (int32 sums are exact, so the bits would be anyway).
constexpr std::int64_t kTaskRows = 64;
constexpr std::int64_t kTaskCols = 256;
// n == 1: rows of A per dot-product band.
constexpr std::int64_t kGemvRows = 64;
// Below this many multiply-adds the tasks run inline on the caller: pool
// dispatch would cost more than the work.
constexpr double kMinParallelMacs = 2.0e6;
// Tuner probe: K cap and the multiply-adds one timed sample covers.
constexpr std::int64_t kProbeMaxK = 4096;
constexpr double kProbeMacs = 1.6e7;

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

void validate(std::int64_t m, std::int64_t n, std::int64_t k,
              std::int64_t lda, std::int64_t ldb, std::int64_t ldc,
              std::int64_t a_scale_count, std::int32_t zero_point) {
  DCN_CHECK(m >= 0 && n >= 0 && k >= 0)
      << "qgemm dims " << m << "x" << n << "x" << k;
  DCN_CHECK(k <= kMaxK && zero_point >= 0 && zero_point <= 255)
      << "qgemm k = " << k << ", zero point " << zero_point
      << ": int32 accumulation is exact only for k <= " << kMaxK
      << " and a u8 zero point";
  DCN_CHECK(lda >= k && ldb >= n && ldc >= n)
      << "qgemm leading dims " << lda << "/" << ldb << "/" << ldc;
  DCN_CHECK(a_scale_count == m || a_scale_count == 1)
      << "qgemm a_scale_count " << a_scale_count << " for m = " << m;
}

inline float apply_epilogue(float x, const float* row_bias, std::int64_t row,
                            bool relu) {
  if (row_bias != nullptr) x += row_bias[row];
  return relu ? std::max(x, 0.0f) : x;
}

struct QgemmArgs {
  std::int64_t m, n, k;
  const std::int8_t* a;
  std::int64_t lda;
  const float* a_scales;
  std::int64_t a_scale_count;
  const std::uint8_t* b;
  std::int64_t ldb;
  float b_scale;
  std::int32_t b_zp;
  float* c;
  std::int64_t ldc;
  const QuantEpilogue& epilogue;
};

// Dequantizing store of C row `row`, columns [col, col + cols), from int32
// sums: one float expression per element, the same as qgemm_reference's.
void store_row(const QgemmArgs& g, std::int64_t row, std::int64_t col,
               std::int64_t cols, const std::int32_t* acc,
               std::int32_t rowsum) {
  const float scale =
      (g.a_scale_count == 1 ? g.a_scales[0] : g.a_scales[row]) * g.b_scale;
  const std::int32_t correction = g.b_zp * rowsum;
  float* crow = g.c + row * g.ldc + col;
  for (std::int64_t j = 0; j < cols; ++j) {
    crow[j] = apply_epilogue(scale * static_cast<float>(acc[j] - correction),
                             g.epilogue.row_bias, row, g.epilogue.relu);
  }
}

// Pack rows [m0, m0 + mb) of A into mr-row panels of K-groups (layout in
// kernels/microkernel.hpp), zero-padding tail rows and the K tail. Writes
// each panel sequentially, reading its rows as parallel streams. Records
// each row's sum for the zero-point correction zp * rowsum — or 0 when zp
// is 0, as it is for post-ReLU activations, which saves a pass over A.
void pack_a(const QgemmArgs& g, std::int64_t m0, std::int64_t mb,
            std::int64_t mr, std::int8_t* __restrict packed,
            std::int32_t* __restrict rowsum) {
  const std::int64_t full = g.k / 4;
  const std::int64_t kg = ceil_div(g.k, 4);
  for (std::int64_t i = 0; i < mb; i += mr) {
    const std::int64_t ib = std::min(mr, mb - i);
    const std::int8_t* rows[kernels::kMaxMr];
    for (std::int64_t ii = 0; ii < ib; ++ii) {
      rows[ii] = g.a + (m0 + i + ii) * g.lda;
      std::int32_t sum = 0;
      if (g.b_zp != 0) {
        for (std::int64_t p = 0; p < g.k; ++p) sum += rows[ii][p];
      }
      rowsum[i + ii] = sum;
    }
    std::int8_t* dst = packed + (i / mr) * kg * mr * 4;
    for (std::int64_t q = 0; q < full; ++q, dst += mr * 4) {
      for (std::int64_t ii = 0; ii < ib; ++ii) {
        std::memcpy(dst + ii * 4, rows[ii] + q * 4, 4);
      }
      if (ib < mr) {
        std::memset(dst + ib * 4, 0, static_cast<std::size_t>((mr - ib) * 4));
      }
    }
    if (full < kg) {
      std::memset(dst, 0, static_cast<std::size_t>(mr * 4));
      for (std::int64_t ii = 0; ii < ib; ++ii) {
        for (std::int64_t p = full * 4; p < g.k; ++p) {
          dst[ii * 4 + p - full * 4] = rows[ii][p];
        }
      }
    }
  }
}

// Pack columns [n0, n0 + nb) of B into nr-column panels of K-groups: the
// four K steps of a column are interleaved into one 32-bit lane. Tail
// columns and the K tail are zero-padded.
void pack_b(const QgemmArgs& g, std::int64_t n0, std::int64_t nb,
            std::int64_t nr, std::uint8_t* __restrict packed) {
  const std::int64_t kg = ceil_div(g.k, 4);
  for (std::int64_t j = 0; j < nb; j += nr) {
    const std::int64_t jb = std::min(nr, nb - j);
    std::uint8_t* panel = packed + (j / nr) * kg * nr * 4;
    for (std::int64_t q = 0; q < kg; ++q) {
      std::uint8_t* __restrict dst = panel + q * nr * 4;
      const std::int64_t p0 = q * 4;
      if (jb == nr && p0 + 4 <= g.k) {
        const std::uint8_t* r0 = g.b + p0 * g.ldb + n0 + j;
        const std::uint8_t* r1 = r0 + g.ldb;
        const std::uint8_t* r2 = r1 + g.ldb;
        const std::uint8_t* r3 = r2 + g.ldb;
        for (std::int64_t jj = 0; jj < nr; ++jj) {
          dst[jj * 4] = r0[jj];
          dst[jj * 4 + 1] = r1[jj];
          dst[jj * 4 + 2] = r2[jj];
          dst[jj * 4 + 3] = r3[jj];
        }
        continue;
      }
      for (std::int64_t jj = 0; jj < nr; ++jj) {
        for (std::int64_t t = 0; t < 4; ++t) {
          const std::int64_t p = p0 + t;
          dst[jj * 4 + t] =
              jj < jb && p < g.k ? g.b[p * g.ldb + n0 + j + jj] : 0;
        }
      }
    }
  }
}

// Bytes of one packed B chunk of kTaskCols columns.
std::int64_t packed_chunk_bytes(std::int64_t k, std::int64_t nr) {
  return ceil_div(kTaskCols, nr) * nr * ceil_div(k, 4) * 4;
}

// One task: C rows [m0, m0 + mb) x columns [n0, n0 + nb) over all of K,
// from its packed B chunk `pb`; packs its A rows into the executing
// thread's workspace.
void qgemm_task(const QgemmArgs& g, const kernels::QgemmMicroKernel& kern,
                std::int64_t m0, std::int64_t mb, std::int64_t n0,
                std::int64_t nb, const std::uint8_t* pb) {
  const std::int64_t mr = kern.mr;
  const std::int64_t nr = kern.nr;
  const std::int64_t kg = ceil_div(g.k, 4);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  auto* pa = reinterpret_cast<std::int8_t*>(
      ws.bytes(static_cast<std::size_t>(ceil_div(mb, mr) * mr * kg * 4)));
  std::int32_t* rowsum = ws.ints(static_cast<std::size_t>(mb));
  pack_a(g, m0, mb, mr, pa, rowsum);
  alignas(64) std::int32_t acc[kernels::kMaxMr * kernels::kMaxNr];
  for (std::int64_t j = 0; j < nb; j += nr) {
    const std::int64_t jb = std::min(nr, nb - j);
    const std::uint8_t* pbj = pb + (j / nr) * kg * nr * 4;
    for (std::int64_t i = 0; i < mb; i += mr) {
      kern.fn(kg, pa + (i / mr) * kg * mr * 4, pbj, acc);
      for (std::int64_t ii = 0; ii < std::min(mr, mb - i); ++ii) {
        store_row(g, m0 + i + ii, n0 + j, jb, acc + ii * nr, rowsum[i + ii]);
      }
    }
  }
}

// Runs fn over [0, tasks) on the compute pool, or inline when the whole
// call is too small to amortize dispatch.
void run_tasks(std::int64_t tasks, double macs,
               const std::function<void(int)>& fn) {
  if (macs < kMinParallelMacs) {
    for (std::int64_t t = 0; t < tasks; ++t) fn(static_cast<int>(t));
    return;
  }
  run_compute_tasks(static_cast<int>(tasks), fn);
}

// n > 1: B is packed once, chunk by chunk, into the caller's workspace
// and shared read-only by the row tasks of each chunk.
void qgemm_packed(const QgemmArgs& g, const kernels::QgemmMicroKernel& kern) {
  const std::int64_t tasks_n = ceil_div(g.n, kTaskCols);
  const std::int64_t chunk = packed_chunk_bytes(g.k, kern.nr);
  const double macs = static_cast<double>(g.m) * static_cast<double>(g.n) *
                      static_cast<double>(g.k);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint8_t* pb = ws.bytes(static_cast<std::size_t>(tasks_n * chunk));
  run_tasks(tasks_n, macs, [&](int t) {
    const std::int64_t n0 = t * kTaskCols;
    pack_b(g, n0, std::min(kTaskCols, g.n - n0), kern.nr, pb + t * chunk);
  });
  run_tasks(ceil_div(g.m, kTaskRows) * tasks_n, macs, [&](int t) {
    const std::int64_t m0 = (t / tasks_n) * kTaskRows;
    const std::int64_t n0 = (t % tasks_n) * kTaskCols;
    qgemm_task(g, kern, m0, std::min(kTaskRows, g.m - m0), n0,
               std::min(kTaskCols, g.n - n0), pb + (t % tasks_n) * chunk);
  });
}

// n == 1 (batch-1 linear layers): no packing — per-row dot products over
// row-major A, in fixed bands of kGemvRows rows.
void qgemv(const QgemmArgs& g, const kernels::KernelVariant& variant) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  const std::uint8_t* column = g.b;
  if (g.ldb != 1) {
    std::uint8_t* gathered = ws.bytes(static_cast<std::size_t>(g.k));
    for (std::int64_t p = 0; p < g.k; ++p) gathered[p] = g.b[p * g.ldb];
    column = gathered;
  }
  run_tasks(ceil_div(g.m, kGemvRows),
            static_cast<double>(g.m) * static_cast<double>(g.k),
            [&](int band) {
              const std::int64_t r0 = band * kGemvRows;
              const std::int64_t rows = std::min(kGemvRows, g.m - r0);
              std::int32_t dot[kGemvRows];
              std::int32_t sum[kGemvRows];
              variant.qdot(rows, g.k, g.a + r0 * g.lda, g.lda, column, dot,
                           sum);
              for (std::int64_t r = 0; r < rows; ++r) {
                store_row(g, r0 + r, 0, 1, dot + r, sum[r]);
              }
            });
}

// Times one candidate tile on a serial task of the class's shape. Like the
// sgemm probe, correctness never depends on this — every tile is exact.
double measure_qgemm(const kernels::KernelVariant& variant,
                     const kernels::TileConfig& cfg, std::int64_t m,
                     std::int64_t n, std::int64_t k) {
  const kernels::QgemmMicroKernel* kern = variant.find_qgemm(cfg.mr, cfg.nr);
  if (kern == nullptr) return 1.0e30;
  const std::int64_t pm = std::min(m, kTaskRows);
  const std::int64_t pn = std::min(n, kTaskCols);
  const std::int64_t pk = std::min(k, kProbeMaxK);
  std::vector<std::int8_t> a(static_cast<std::size_t>(pm * pk));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(pk * pn));
  std::vector<float> c(static_cast<std::size_t>(pm * pn));
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int8_t>(static_cast<std::int64_t>(i % 255) - 127);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(i % 251);
  }
  const float scale = 0.5f;
  const QuantEpilogue epilogue;
  const QgemmArgs g{pm, pn, pk, a.data(), pk, &scale, 1,
                    b.data(), pn, 0.25f, 3, c.data(), pn, epilogue};
  const double macs = static_cast<double>(pm) * static_cast<double>(pn) *
                      static_cast<double>(pk);
  const int iters =
      static_cast<int>(std::max(1.0, std::min(64.0, kProbeMacs / macs)));
  std::vector<std::uint8_t> pb(
      static_cast<std::size_t>(packed_chunk_bytes(pk, kern->nr)));
  WallTimer timer;
  for (int it = 0; it < iters; ++it) {
    pack_b(g, 0, pn, kern->nr, pb.data());
    qgemm_task(g, *kern, 0, pm, 0, pn, pb.data());
  }
  return timer.milliseconds() / iters;
}

const kernels::QgemmMicroKernel& select_tile(
    const kernels::KernelVariant& variant, std::int64_t m, std::int64_t n,
    std::int64_t k) {
  const kernels::TileConfig cfg = kernels::TileTuner::global().choose(
      variant, 'q', m, n, k, [&](const kernels::TileConfig& c) {
        return measure_qgemm(variant, c, m, n, k);
      });
  const kernels::QgemmMicroKernel* kern = variant.find_qgemm(cfg.mr, cfg.nr);
  return kern != nullptr ? *kern : variant.qgemm.front();
}

}  // namespace

void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const float* a_scales,
           std::int64_t a_scale_count, const std::uint8_t* b,
           std::int64_t ldb, const QuantParams& b_params, float* c,
           std::int64_t ldc, const QuantEpilogue& epilogue) {
  validate(m, n, k, lda, ldb, ldc, a_scale_count, b_params.zero_point);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Degenerate reduction: the accumulator is zero everywhere; only the
    // epilogue runs.
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        c[i * ldc + j] =
            apply_epilogue(0.0f, epilogue.row_bias, i, epilogue.relu);
      }
    }
    return;
  }
  const QgemmArgs g{m, n, k, a, lda, a_scales, a_scale_count, b, ldb,
                    b_params.scale, b_params.zero_point, c, ldc, epilogue};
  const kernels::KernelVariant& variant =
      kernels::KernelRegistry::global().active();
  if (n == 1) {
    qgemv(g, variant);
    return;
  }
  qgemm_packed(g, select_tile(variant, m, n, k));
}

void qgemm(const QuantizedWeights& weights, const std::uint8_t* b,
           std::int64_t n, std::int64_t ldb, const QuantParams& b_params,
           float* c, std::int64_t ldc, const QuantEpilogue& epilogue) {
  qgemm(weights.rows, n, weights.cols, weights.data.data(), weights.cols,
        weights.scales.data(),
        static_cast<std::int64_t>(weights.scales.size()), b, ldb, b_params,
        c, ldc, epilogue);
}

void qgemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const float* a_scales, std::int64_t a_scale_count,
                     const std::uint8_t* b, std::int64_t ldb,
                     const QuantParams& b_params, float* c, std::int64_t ldc,
                     const QuantEpilogue& epilogue) {
  validate(m, n, k, lda, ldb, ldc, a_scale_count, b_params.zero_point);
  for (std::int64_t i = 0; i < m; ++i) {
    const float scale =
        (a_scale_count == 1 ? a_scales[0] : a_scales[i]) * b_params.scale;
    for (std::int64_t j = 0; j < n; ++j) {
      std::int64_t acc = 0;
      std::int64_t asum = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<std::int64_t>(a[i * lda + kk]) *
               static_cast<std::int64_t>(b[kk * ldb + j]);
        asum += a[i * lda + kk];
      }
      const auto corrected = static_cast<std::int32_t>(
          acc - static_cast<std::int64_t>(b_params.zero_point) * asum);
      c[i * ldc + j] =
          apply_epilogue(scale * static_cast<float>(corrected),
                         epilogue.row_bias, i, epilogue.relu);
    }
  }
}

}  // namespace dcn
