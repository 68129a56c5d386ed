// Property tests for the parallel blocked SGEMM against the reference
// kernel: transpose combos, odd shapes, alpha/beta semantics, fused
// epilogues, bit-identical results across thread counts, and the m == 1
// GEMV path against the packed path.
#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"

namespace dcn {
namespace {

// Restores the process-wide thread setting when a test body returns.
struct ThreadGuard {
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
};

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at " << i;
  }
}

// (m, n, k, trans_a, trans_b)
using GemmCase = std::tuple<int, int, int, bool, bool>;

class GemmMatchesReference : public testing::TestWithParam<GemmCase> {};

TEST_P(GemmMatchesReference, RandomInputs) {
  const auto [m, n, k, ta, tb] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + n * 1009 + k) +
          (ta ? 7 : 0) + (tb ? 13 : 0));
  const auto a = ta ? random_matrix(k, m, rng) : random_matrix(m, k, rng);
  const auto b = tb ? random_matrix(n, k, rng) : random_matrix(k, n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> c_ref = c;
  matmul(ta, tb, m, n, k, a.data(), b.data(), c.data());
  const std::int64_t lda = ta ? m : k;
  const std::int64_t ldb = tb ? k : n;
  sgemm_reference(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
                  c_ref.data(), n);
  expect_close(c, c_ref, 2e-3f * static_cast<float>(k));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmMatchesReference,
    testing::Values(
        GemmCase{1, 1, 1, false, false}, GemmCase{1, 8, 64, false, false},
        GemmCase{4, 8, 4, false, false}, GemmCase{5, 9, 7, false, false},
        GemmCase{64, 64, 64, false, false},
        GemmCase{65, 257, 129, false, false},
        GemmCase{128, 32, 300, false, false},
        GemmCase{3, 300, 2, false, false}, GemmCase{31, 33, 17, true, false},
        GemmCase{31, 33, 17, false, true}, GemmCase{31, 33, 17, true, true},
        GemmCase{100, 5, 7680, false, true},
        GemmCase{70, 70, 70, true, true}));

// --- Full engine sweep: trans x alpha/beta x epilogue x threads ----------

enum class Epi { kNone, kRowBias, kColBias, kRowBiasRelu, kColBiasRelu };

// (m, n, k, trans_a, trans_b, alpha, beta, epilogue, threads)
using SweepCase =
    std::tuple<int, int, int, bool, bool, float, float, Epi, int>;

class GemmSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(GemmSweep, MatchesReferencePlusEpilogue) {
  const auto [m, n, k, ta, tb, alpha, beta, epi, threads] = GetParam();
  ThreadGuard guard(threads);
  Rng rng(static_cast<std::uint64_t>(m * 7919 + n * 104729 + k * 31 +
                                     static_cast<int>(epi) * 5 + threads) +
          (ta ? 17 : 0) + (tb ? 29 : 0));
  const auto a = ta ? random_matrix(k, m, rng) : random_matrix(m, k, rng);
  const auto b = tb ? random_matrix(n, k, rng) : random_matrix(k, n, rng);
  const auto bias = random_matrix(1, epi == Epi::kRowBias ||
                                             epi == Epi::kRowBiasRelu
                                         ? m
                                         : n,
                                  rng);
  auto c = random_matrix(m, n, rng);
  auto c_ref = c;

  GemmEpilogue ep;
  if (epi == Epi::kRowBias || epi == Epi::kRowBiasRelu) {
    ep.row_bias = bias.data();
  } else if (epi == Epi::kColBias || epi == Epi::kColBiasRelu) {
    ep.col_bias = bias.data();
  }
  ep.relu = epi == Epi::kRowBiasRelu || epi == Epi::kColBiasRelu;

  const std::int64_t lda = ta ? m : k;
  const std::int64_t ldb = tb ? k : n;
  sgemm_ex(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
           c.data(), n, ep);
  sgemm_reference(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                  c_ref.data(), n);
  // Apply the epilogue to the reference result by hand.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& v = c_ref[static_cast<std::size_t>(i) * n + j];
      if (ep.row_bias) v += ep.row_bias[i];
      if (ep.col_bias) v += ep.col_bias[j];
      if (ep.relu && v < 0.0f) v = 0.0f;
    }
  }
  expect_close(c, c_ref, 2e-3f * static_cast<float>(std::max(k, 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmSweep,
    testing::Combine(testing::Values(5, 65),         // m
                     testing::Values(9, 257),        // n
                     testing::Values(7, 129),        // k
                     testing::Bool(),                // trans_a
                     testing::Bool(),                // trans_b
                     testing::Values(1.0f, 0.5f),    // alpha
                     testing::Values(0.0f, 2.0f),    // beta
                     testing::Values(Epi::kNone, Epi::kRowBias,
                                     Epi::kColBias, Epi::kRowBiasRelu,
                                     Epi::kColBiasRelu),
                     testing::Values(1, 4)));        // threads

TEST(Gemm, BitIdenticalAcrossThreadCounts) {
  // The acceptance contract: the engine's decomposition is invariant in
  // the thread count, so outputs match bit for bit, not just to tolerance.
  Rng rng(21);
  const int m = 131, n = 263, k = 517;  // odd everything, multiple K blocks
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bias = random_matrix(1, m, rng);
  GemmEpilogue ep;
  ep.row_bias = bias.data();
  ep.relu = true;
  std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> c5 = c1;
  {
    ThreadGuard guard(1);
    sgemm_ex(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             c1.data(), n, ep);
  }
  {
    ThreadGuard guard(5);
    sgemm_ex(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             c5.data(), n, ep);
  }
  EXPECT_EQ(0, std::memcmp(c1.data(), c5.data(), c1.size() * sizeof(float)));
}

TEST(Gemm, ScalarBaselineMatchesReference) {
  // The frozen pre-rewrite kernel stays a valid GEMM (it anchors the
  // benchmark's speedup ratio).
  Rng rng(31);
  const int m = 70, n = 65, k = 300;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  auto c = random_matrix(m, n, rng);
  auto c_ref = c;
  sgemm_blocked_scalar(false, false, m, n, k, 1.5f, a.data(), k, b.data(), n,
                       0.5f, c.data(), n);
  sgemm_reference(false, false, m, n, k, 1.5f, a.data(), k, b.data(), n, 0.5f,
                  c_ref.data(), n);
  expect_close(c, c_ref, 2e-3f * static_cast<float>(k));
}

TEST(Gemm, EpilogueAppliesOnDegenerateKZero) {
  // k == 0 (and alpha == 0) skip the accumulation entirely; the epilogue
  // must still run exactly once over beta * C.
  std::vector<float> c{1.0f, -2.0f, 3.0f, -4.0f};
  const std::vector<float> bias{10.0f, -10.0f};
  GemmEpilogue ep;
  ep.col_bias = bias.data();
  ep.relu = true;
  sgemm_ex(false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 1.0f,
           c.data(), 2, ep);
  EXPECT_EQ(c[0], 11.0f);  // 1 + 10
  EXPECT_EQ(c[1], 0.0f);   // relu(-2 - 10)
  EXPECT_EQ(c[2], 13.0f);  // 3 + 10
  EXPECT_EQ(c[3], 0.0f);   // relu(-4 - 10)
}

TEST(Gemm, EpilogueWithBetaZeroIgnoresGarbageC) {
  Rng rng(41);
  const int m = 8, n = 8, k = 8;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bias = random_matrix(1, m, rng);
  std::vector<float> c(64, std::numeric_limits<float>::quiet_NaN());
  GemmEpilogue ep;
  ep.row_bias = bias.data();
  sgemm_ex(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
           c.data(), n, ep);
  for (float v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(Gemm, AlphaBetaSemantics) {
  Rng rng(5);
  const int m = 17, n = 13, k = 9;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  auto c = random_matrix(m, n, rng);
  auto c_ref = c;
  sgemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 2.0f, c.data(),
        n);
  sgemm_reference(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 2.0f,
                  c_ref.data(), n);
  expect_close(c, c_ref, 1e-2f);
}

TEST(Gemm, AlphaScalingAcrossMultiplePackedPanels) {
  // m and k exceed the 64x256 blocking, and m % 4 != 0 leaves a zero-padded
  // tail in the packed panel. Folding alpha into pack_a must scale exactly
  // the packed extent of every panel — this shape covers edge panels in
  // both dimensions across repacks.
  Rng rng(12);
  const int m = 70, n = 33, k = 300;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  auto c = random_matrix(m, n, rng);
  auto c_ref = c;
  sgemm(false, false, m, n, k, 2.5f, a.data(), k, b.data(), n, 0.5f, c.data(),
        n);
  sgemm_reference(false, false, m, n, k, 2.5f, a.data(), k, b.data(), n, 0.5f,
                  c_ref.data(), n);
  expect_close(c, c_ref, 2e-3f * static_cast<float>(k));
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Rng rng(6);
  const int m = 8, n = 8, k = 8;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(64, std::numeric_limits<float>::quiet_NaN());
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
        n);
  for (float v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(Gemm, KZeroScalesOnly) {
  std::vector<float> c{1.0f, 2.0f, 3.0f, 4.0f};
  sgemm(false, false, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 3.0f, c.data(),
        2);
  EXPECT_EQ(c[0], 3.0f);
  EXPECT_EQ(c[3], 12.0f);
}

TEST(Gemm, AlphaZeroLeavesBetaC) {
  Rng rng(8);
  const auto a = random_matrix(4, 4, rng);
  const auto b = random_matrix(4, 4, rng);
  std::vector<float> c(16, 2.0f);
  sgemm(false, false, 4, 4, 4, 0.0f, a.data(), 4, b.data(), 4, 1.0f, c.data(),
        4);
  for (float v : c) EXPECT_EQ(v, 2.0f);
}

TEST(Gemm, LeadingDimensionLargerThanWidth) {
  // C is a 2x2 view inside a 2x4 buffer.
  Rng rng(9);
  const auto a = random_matrix(2, 3, rng);
  const auto b = random_matrix(3, 2, rng);
  std::vector<float> c(8, -1.0f);
  sgemm(false, false, 2, 2, 3, 1.0f, a.data(), 3, b.data(), 2, 0.0f, c.data(),
        4);
  // Untouched tail columns retain the sentinel.
  EXPECT_EQ(c[2], -1.0f);
  EXPECT_EQ(c[3], -1.0f);
  EXPECT_EQ(c[6], -1.0f);
  std::vector<float> dense(4, 0.0f);
  sgemm_reference(false, false, 2, 2, 3, 1.0f, a.data(), 3, b.data(), 2, 0.0f,
                  dense.data(), 2);
  EXPECT_NEAR(c[0], dense[0], 1e-4f);
  EXPECT_NEAR(c[1], dense[1], 1e-4f);
  EXPECT_NEAR(c[4], dense[2], 1e-4f);
  EXPECT_NEAR(c[5], dense[3], 1e-4f);
}

// Tuning off: each variant runs its default tile, and no shape class is
// timed or cached.
struct TunerOff {
  TunerOff() { kernels::TileTuner::global().set_enabled(false); }
  ~TunerOff() { kernels::TileTuner::global().set_enabled(true); }
};

TEST(Gemm, GemvRowEqualsEveryRowOfThePackedProduct) {
  // m == 1 takes the unpacked GEMV path; m == 3 the packed micro tiles.
  // Both sum each element from 0 over ascending p in K blocks of 256 and
  // store through one epilogue, so each row of the m == 3 product must be
  // the m == 1 product of that row of A, bit for bit. k straddles the K
  // block; n straddles the 16-column kernel calls and 64-column tasks, and
  // 300 x 769 is large enough to split over the threads.
  TunerOff tuner_off;
  kernels::KernelRegistry& reg = kernels::KernelRegistry::global();
  enum class Epi { kNone, kColBiasRelu, kRowBiasRelu };
  constexpr std::int64_t m = 3;
  for (const std::int64_t k : {1, 255, 256, 257, 769}) {
    for (const std::int64_t n : {1, 15, 16, 17, 300}) {
      Rng rng(static_cast<std::uint64_t>(k * 1009 + n));
      const auto a = random_matrix(m, k, rng);  // read as m x k or k x m
      const auto b = random_matrix(k, n, rng);  // read as k x n or n x k
      const auto c0 = random_matrix(m, n, rng);
      const auto row_bias = random_matrix(1, m, rng);
      const auto col_bias = random_matrix(1, n, rng);
      for (const std::string& name : reg.variant_names()) {
        if (!reg.variant_supported(name)) continue;
        kernels::KernelRegistry::ScopedForce force(name);
        ASSERT_TRUE(force.ok()) << name;
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            for (const float alpha : {1.0f, 0.5f}) {
              for (const float beta : {0.0f, 2.0f}) {
                for (const Epi epi :
                     {Epi::kNone, Epi::kColBiasRelu, Epi::kRowBiasRelu}) {
                  GemmEpilogue ep;
                  ep.relu = epi != Epi::kNone;
                  if (epi == Epi::kColBiasRelu) ep.col_bias = col_bias.data();
                  if (epi == Epi::kRowBiasRelu) ep.row_bias = row_bias.data();
                  const std::int64_t lda = ta ? m : k;
                  const std::int64_t ldb = tb ? k : n;
                  auto packed = c0;
                  sgemm_ex(ta, tb, m, n, k, alpha, a.data(), lda, b.data(),
                           ldb, beta, packed.data(), n, ep);
                  for (const int threads : {1, 4}) {
                    ThreadGuard guard(threads);
                    for (std::int64_t i = 0; i < m; ++i) {
                      std::vector<float> row(c0.begin() + i * n,
                                             c0.begin() + (i + 1) * n);
                      GemmEpilogue row_ep = ep;
                      if (ep.row_bias) row_ep.row_bias = ep.row_bias + i;
                      sgemm_ex(ta, tb, 1, n, k, alpha,
                               a.data() + (ta ? i : i * k), lda, b.data(),
                               ldb, beta, row.data(), n, row_ep);
                      ASSERT_EQ(0, std::memcmp(row.data(),
                                               packed.data() + i * n,
                                               sizeof(float) *
                                                   static_cast<std::size_t>(n)))
                          << name << " row " << i << " of " << m << 'x' << n
                          << 'x' << k << " ta=" << ta << " tb=" << tb
                          << " alpha=" << alpha << " beta=" << beta
                          << " epi=" << static_cast<int>(epi)
                          << " threads=" << threads;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, RejectsTooSmallLeadingDimensions) {
  // A leading dimension below the stored row width would make packing, or
  // the GEMV, read past the matrix; every one throws, at m == 1 too.
  const std::vector<float> a(64, 1.0f);
  const std::vector<float> b(64, 1.0f);
  std::vector<float> c(64, 0.0f);
  const std::int64_t n = 5;
  const std::int64_t k = 6;
  for (const std::int64_t m : {1, 4}) {
    const auto call = [&](bool ta, bool tb, std::int64_t lda,
                          std::int64_t ldb, std::int64_t ldc) {
      sgemm(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
            c.data(), ldc);
    };
    EXPECT_NO_THROW(call(false, false, k, n, n));
    EXPECT_NO_THROW(call(true, true, m, k, n));
    EXPECT_THROW(call(false, false, k - 1, n, n), Error) << "lda, m " << m;
    EXPECT_THROW(call(true, false, m - 1, n, n), Error) << "lda^T, m " << m;
    EXPECT_THROW(call(false, false, k, n - 1, n), Error) << "ldb, m " << m;
    EXPECT_THROW(call(false, true, k, k - 1, n), Error) << "ldb^T, m " << m;
    EXPECT_THROW(call(false, false, k, n, n - 1), Error) << "ldc, m " << m;
  }
}

TEST(Gemm, EmptyOutputIsNoop) {
  sgemm(false, false, 0, 5, 3, 1.0f, nullptr, 3, nullptr, 5, 0.0f, nullptr,
        5);
  SUCCEED();
}

}  // namespace
}  // namespace dcn
