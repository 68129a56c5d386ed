// Tests for the SIMD microkernel registry, the autotuned tile cache, and
// the determinism contract binding them: every compiled-in variant, at
// every tile the tuner may choose, must produce byte-identical outputs
// (kernels/microkernel.hpp). Also pins the Workspace's 64-byte alignment
// guarantee the packed panels rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "profiler/counters.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/quantize.hpp"
#include "tensor/reduce.hpp"
#include "tensor/workspace.hpp"

namespace dcn {
namespace {

using kernels::KernelRegistry;
using kernels::TileTuner;

struct ThreadGuard {
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
};

// Runs a test body on each variant's default tile: tuning only picks among
// tiles every one of which is bit-exact (the tile sweep below), and a cold
// tune per variant and shape class is most of these tests' time under ASan.
struct TunerOff {
  TunerOff() { TileTuner::global().set_enabled(false); }
  ~TunerOff() { TileTuner::global().set_enabled(true); }
};

// Every test runs against a private tuner cache directory so the suite
// neither reads nor pollutes the user's ~/.cache.
class KernelsTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dcn-kernels-test-" + std::to_string(::testing::UnitTest::
                                                     GetInstance()
                                                         ->random_seed()) +
            "-" + test_name());
    std::filesystem::remove_all(dir_);
    TileTuner::global().set_cache_dir(dir_.string());
    // Neutralize an ambient variant override (the CI portable leg runs the
    // whole suite with DCN_KERNEL_VARIANT=generic): these tests assert
    // auto-selection and set the variable themselves where needed.
    const char* ambient = std::getenv("DCN_KERNEL_VARIANT");
    if (ambient != nullptr) ambient_variant_ = ambient;
    ::unsetenv("DCN_KERNEL_VARIANT");
    KernelRegistry::global().reselect();
  }
  void TearDown() override {
    if (!ambient_variant_.empty()) {
      ::setenv("DCN_KERNEL_VARIANT", ambient_variant_.c_str(), 1);
    }
    KernelRegistry::global().reselect();
    TileTuner::global().set_cache_dir("");
    std::filesystem::remove_all(dir_);
  }
  std::string test_name() const {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    return std::string(info->test_suite_name()) + "." + info->name();
  }
  std::filesystem::path dir_;
  std::string ambient_variant_;
};

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

// Random s8 weights in [-127, 127] and u8 activations.
struct QgemmOperands {
  std::vector<std::int8_t> a;
  std::vector<std::uint8_t> b;
  std::vector<float> scales;
  std::vector<float> bias;
};

QgemmOperands random_qgemm_operands(std::int64_t m, std::int64_t n,
                                    std::int64_t k, Rng& rng) {
  QgemmOperands q;
  q.a.resize(static_cast<std::size_t>(m * k));
  q.b.resize(static_cast<std::size_t>(k * n));
  q.scales.resize(static_cast<std::size_t>(m));
  q.bias.resize(static_cast<std::size_t>(m));
  for (auto& v : q.a) {
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  }
  for (auto& v : q.b) {
    v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  for (auto& s : q.scales) {
    s = 0.01f + 0.001f * static_cast<float>(rng.normal());
  }
  for (auto& v : q.bias) v = static_cast<float>(rng.normal());
  return q;
}

// qgemm under the current variant/tile; C starts poisoned so an unwritten
// element shows.
std::vector<float> run_qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
                             const QgemmOperands& q, const QuantParams& bp,
                             const QuantEpilogue& ep) {
  std::vector<float> c(static_cast<std::size_t>(m * n), -1.0f);
  qgemm(m, n, k, q.a.data(), k, q.scales.data(), m, q.b.data(), n, bp,
        c.data(), n, ep);
  return c;
}

// ---------------------------------------------------------------- registry

TEST_F(KernelsTest, RegistryListsGenericFirstAndActiveIsSupported) {
  KernelRegistry& reg = KernelRegistry::global();
  const auto names = reg.variant_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "generic");
  EXPECT_TRUE(reg.variant_supported("generic"));
  EXPECT_TRUE(reg.variant_supported(reg.active().name));
  // Auto selection picks the highest supported priority.
  const auto* active = reg.find(reg.active().name);
  ASSERT_NE(active, nullptr);
  for (const auto& name : names) {
    const auto* v = reg.find(name);
    ASSERT_NE(v, nullptr);
    if (reg.variant_supported(name)) {
      EXPECT_LE(v->priority, active->priority) << name;
    }
  }
}

TEST_F(KernelsTest, EveryVariantRegistersCompleteKernelSet) {
  KernelRegistry& reg = KernelRegistry::global();
  for (const auto& name : reg.variant_names()) {
    const auto* v = reg.find(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_FALSE(v->sgemm.empty()) << name;
    EXPECT_FALSE(v->qgemm.empty()) << name;
    EXPECT_NE(v->qdot, nullptr) << name;
    EXPECT_NE(v->accumulate, nullptr) << name;
    EXPECT_NE(v->quantize_u8, nullptr) << name;
    EXPECT_NE(v->quantize_s8, nullptr) << name;
    EXPECT_NE(v->dequantize_u8, nullptr) << name;
    EXPECT_NE(v->reduce_max, nullptr) << name;
    EXPECT_NE(v->reduce_min, nullptr) << name;
    for (const auto& k : v->sgemm) {
      EXPECT_GE(k.mr, 1);
      EXPECT_LE(k.mr, kernels::kMaxMr);
      EXPECT_GE(k.nr, 1);
      EXPECT_LE(k.nr, kernels::kMaxNr);
      EXPECT_NE(k.fn, nullptr);
    }
    for (const auto& k : v->qgemm) {
      EXPECT_GE(k.mr, 1);
      EXPECT_LE(k.mr, kernels::kMaxMr);
      EXPECT_GE(k.nr, 1);
      EXPECT_LE(k.nr, kernels::kMaxNr);
      EXPECT_NE(k.fn, nullptr);
    }
  }
}

TEST_F(KernelsTest, ForceVariantRefusesUnknownAndKeepsSelection) {
  KernelRegistry& reg = KernelRegistry::global();
  const std::string before = reg.active().name;
  EXPECT_FALSE(reg.force_variant("no-such-isa"));
  EXPECT_EQ(reg.active().name, before);
  KernelRegistry::ScopedForce bogus("also-missing");
  EXPECT_FALSE(bogus.ok());
  EXPECT_EQ(reg.active().name, before);
}

TEST_F(KernelsTest, EnvOverrideHonoredByReselect) {
  KernelRegistry& reg = KernelRegistry::global();
  const std::string before = reg.active().name;
  ASSERT_EQ(::setenv("DCN_KERNEL_VARIANT", "generic", 1), 0);
  reg.reselect();
  EXPECT_EQ(reg.active().name, "generic");
  // An unknown name falls back to auto selection instead of failing.
  ASSERT_EQ(::setenv("DCN_KERNEL_VARIANT", "bogus", 1), 0);
  reg.reselect();
  EXPECT_EQ(reg.active().name, before);
  ASSERT_EQ(::unsetenv("DCN_KERNEL_VARIANT"), 0);
  reg.reselect();
  EXPECT_EQ(reg.active().name, before);
}

// ------------------------------------------- cross-variant bit-equality --

// Runs one sgemm under the currently forced variant and returns C.
std::vector<float> run_case(std::int64_t m, std::int64_t n, std::int64_t k,
                            bool ta, bool tb, float alpha, float beta,
                            bool with_epilogue, const std::vector<float>& a,
                            const std::vector<float>& b,
                            const std::vector<float>& bias,
                            const std::vector<float>& c0) {
  std::vector<float> c = c0;
  GemmEpilogue ep;
  if (with_epilogue) {
    ep.row_bias = bias.data();
    ep.relu = true;
  }
  const std::int64_t lda = ta ? m : k;
  const std::int64_t ldb = tb ? k : n;
  sgemm_ex(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
           c.data(), n, ep);
  return c;
}

TEST_F(KernelsTest, AllVariantsBitIdenticalAcrossTransAlphaBetaEpilogue) {
  KernelRegistry& reg = KernelRegistry::global();
  const struct {
    int m, n, k;
  } shapes[] = {{5, 9, 7}, {65, 257, 129}, {131, 63, 300}};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(s.m * 131071 + s.n * 8191 + s.k));
    const auto a_nt = random_matrix(s.m, s.k, rng);
    const auto a_t = random_matrix(s.k, s.m, rng);
    const auto b_nt = random_matrix(s.k, s.n, rng);
    const auto b_t = random_matrix(s.n, s.k, rng);
    const auto bias = random_matrix(1, s.m, rng);
    const auto c0 = random_matrix(s.m, s.n, rng);
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        for (float alpha : {1.0f, 0.5f}) {
          for (float beta : {0.0f, 2.0f}) {
            for (bool epi : {false, true}) {
              const auto& a = ta ? a_t : a_nt;
              const auto& b = tb ? b_t : b_nt;
              std::vector<float> ref;
              {
                KernelRegistry::ScopedForce force("generic");
                ASSERT_TRUE(force.ok());
                ref = run_case(s.m, s.n, s.k, ta, tb, alpha, beta, epi, a, b,
                               bias, c0);
              }
              for (const auto& name : reg.variant_names()) {
                if (!reg.variant_supported(name)) continue;
                KernelRegistry::ScopedForce force(name);
                ASSERT_TRUE(force.ok()) << name;
                const auto got = run_case(s.m, s.n, s.k, ta, tb, alpha, beta,
                                          epi, a, b, bias, c0);
                ASSERT_EQ(0,
                          std::memcmp(ref.data(), got.data(),
                                      ref.size() * sizeof(float)))
                    << name << " diverges from generic at " << s.m << 'x'
                    << s.n << 'x' << s.k << " ta=" << ta << " tb=" << tb
                    << " alpha=" << alpha << " beta=" << beta
                    << " epi=" << epi;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelsTest, EveryVariantMatchesReferenceWithinTolerance) {
  KernelRegistry& reg = KernelRegistry::global();
  Rng rng(77);
  const int m = 65, n = 257, k = 129;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c_ref(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm_reference(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                  c_ref.data(), n);
  for (const auto& name : reg.variant_names()) {
    if (!reg.variant_supported(name)) continue;
    KernelRegistry::ScopedForce force(name);
    ASSERT_TRUE(force.ok());
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
          c.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], 2e-3f * k) << name << " at " << i;
    }
  }
}

TEST_F(KernelsTest, EveryVariantBitIdenticalAcrossThreadCounts) {
  KernelRegistry& reg = KernelRegistry::global();
  Rng rng(21);
  const int m = 131, n = 263, k = 517;  // odd everything, multiple K blocks
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  for (const auto& name : reg.variant_names()) {
    if (!reg.variant_supported(name)) continue;
    KernelRegistry::ScopedForce force(name);
    ASSERT_TRUE(force.ok());
    std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0f);
    std::vector<float> c5 = c1;
    {
      ThreadGuard guard(1);
      sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
            c1.data(), n);
    }
    {
      ThreadGuard guard(5);
      sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
            c5.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(c1.data(), c5.data(), c1.size() * sizeof(float)))
        << name;
  }
}

TEST_F(KernelsTest, AllTunableTilesBitIdentical) {
  // The tuner only ever changes speed: force each registered tile of the
  // active variant and check the outputs are memcmp-equal.
  const kernels::KernelVariant& v = KernelRegistry::global().active();
  Rng rng(55);
  const int m = 70, n = 130, k = 300;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> ref;
  for (const auto& tile : v.sgemm) {
    TileTuner::ScopedForcedTile force(tile.mr, tile.nr);
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
          c.data(), n);
    if (ref.empty()) {
      ref = c;
    } else {
      EXPECT_EQ(0, std::memcmp(ref.data(), c.data(), c.size() * sizeof(float)))
          << "tile " << tile.mr << 'x' << tile.nr;
    }
  }
}

// ----------------------------------------------------------------- tuner --

TEST_F(KernelsTest, TunerColdThenWarmFromDiskIsByteIdentical) {
  TileTuner& tuner = TileTuner::global();
  tuner.reset_stats();
  profiler::reset_counters();
  Rng rng(91);
  const int m = 150, n = 270, k = 310;  // a class no other test tunes
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> cold(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        cold.data(), n);
  const auto after_cold = tuner.stats();
  EXPECT_GE(after_cold.tuned, 1);
  EXPECT_GE(profiler::counter_value("tuner.tuned"), 1);
  EXPECT_GE(profiler::counter_value("tuner_cache.miss"), 1);

  // Drop the memo; the winner must replay from disk, not re-tune.
  tuner.clear_memory();
  std::vector<float> warm(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        warm.data(), n);
  const auto after_warm = tuner.stats();
  EXPECT_GE(after_warm.disk_hits, after_cold.disk_hits + 1);
  EXPECT_EQ(after_warm.tuned, after_cold.tuned);
  EXPECT_GE(profiler::counter_value("tuner_cache.disk_hit"), 1);
  EXPECT_EQ(0,
            std::memcmp(cold.data(), warm.data(), cold.size() * sizeof(float)));

  // Third run hits the rebuilt memo.
  std::vector<float> memo(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        memo.data(), n);
  EXPECT_GE(tuner.stats().memo_hits, after_warm.memo_hits + 1);
  EXPECT_GE(profiler::counter_value("tuner_cache.hit"), 1);
}

TEST_F(KernelsTest, CorruptedCacheEntryFallsBackToRetune) {
  TileTuner& tuner = TileTuner::global();
  const kernels::KernelVariant& v = KernelRegistry::global().active();
  Rng rng(92);
  const int m = 150, n = 270, k = 310;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> first(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        first.data(), n);
  const std::string key = TileTuner::cache_key(v, 'f', m, n, k);
  const std::string path = tuner.entry_path(key);
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  {
    std::ofstream out(path, std::ios::trunc);
    out << "dcn-tile-cache-v1\nkey=" << key << "\nmr=9999\nnr=-3\n";
  }
  tuner.clear_memory();
  tuner.reset_stats();
  std::vector<float> second(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        second.data(), n);
  const auto stats = tuner.stats();
  EXPECT_GE(stats.corrupt_entries, 1);
  EXPECT_GE(stats.tuned, 1);  // silently re-tuned
  EXPECT_GE(profiler::counter_value("tuner_cache.corrupt"), 1);
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                           first.size() * sizeof(float)));
}

TEST_F(KernelsTest, StaleQgemmRowTileEntryFallsBackToRetune) {
  // Before packed qgemm tiles, a 'q' entry held only an accumulator row
  // count (mr=4, nr=0, no blocking). No variant registers such a tile, so
  // the entry must be rejected and the class re-tuned.
  TileTuner& tuner = TileTuner::global();
  const kernels::KernelVariant& v = KernelRegistry::global().active();
  Rng rng(94);
  const int m = 150, n = 270, k = 310;
  const QgemmOperands q = random_qgemm_operands(m, n, k, rng);
  QuantParams bp;
  bp.scale = 0.02f;
  bp.zero_point = 9;
  const auto first = run_qgemm(m, n, k, q, bp, QuantEpilogue{});
  const std::string key = TileTuner::cache_key(v, 'q', m, n, k);
  const std::string path = tuner.entry_path(key);
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  {
    std::ofstream out(path, std::ios::trunc);
    out << "dcn-tile-cache-v1\nkey=" << key
        << "\nmr=4\nnr=0\nmc=0\nnc=0\nkc=256\nms=1\n";
  }
  tuner.clear_memory();
  tuner.reset_stats();
  const auto second = run_qgemm(m, n, k, q, bp, QuantEpilogue{});
  const auto stats = tuner.stats();
  EXPECT_GE(stats.corrupt_entries, 1);
  EXPECT_GE(stats.tuned, 1);
  EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                           first.size() * sizeof(float)));
}

TEST_F(KernelsTest, DisabledTunerUsesVariantDefaultWithoutTouchingCache) {
  TileTuner& tuner = TileTuner::global();
  tuner.set_enabled(false);
  tuner.reset_stats();
  Rng rng(93);
  const int m = 90, n = 110, k = 140;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
        n);
  const auto stats = tuner.stats();
  EXPECT_EQ(stats.tuned, 0);
  EXPECT_EQ(stats.memo_misses, 0);
  EXPECT_EQ(stats.disk_misses, 0);
  tuner.set_enabled(true);
}

TEST_F(KernelsTest, CacheKeyBucketsShapesIntoClasses) {
  const kernels::KernelVariant& v = KernelRegistry::global().active();
  // Same power-of-two class -> same key; different class -> different key.
  EXPECT_EQ(TileTuner::cache_key(v, 'f', 65, 257, 129),
            TileTuner::cache_key(v, 'f', 100, 500, 200));
  EXPECT_NE(TileTuner::cache_key(v, 'f', 65, 257, 129),
            TileTuner::cache_key(v, 'f', 300, 257, 129));
  // Small dims are kept exact.
  EXPECT_NE(TileTuner::cache_key(v, 'f', 5, 9, 7),
            TileTuner::cache_key(v, 'f', 6, 9, 7));
  // Precision is part of the key.
  EXPECT_NE(TileTuner::cache_key(v, 'f', 64, 64, 64),
            TileTuner::cache_key(v, 'q', 64, 64, 64));
}

// ----------------------------------------------------------------- qgemm --

TEST_F(KernelsTest, QgemmEveryVariantBitExactAgainstReference) {
  // One shape that runs inline, one split into 3 x 2 packed tasks and one
  // batch-1 shape split into dot-product bands: the last two are large
  // enough to run on the compute pool at threads = 4.
  KernelRegistry& reg = KernelRegistry::global();
  const TunerOff tuner_off;
  const struct {
    int m, n, k;
  } shapes[] = {{37, 113, 71}, {129, 300, 71}, {300, 1, 7001}};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(44 + s.m + s.n + s.k));
    const QgemmOperands q = random_qgemm_operands(s.m, s.n, s.k, rng);
    QuantParams bp;
    bp.scale = 0.02f;
    bp.zero_point = 131;
    QuantEpilogue ep;
    ep.row_bias = q.bias.data();
    ep.relu = true;
    std::vector<float> ref(static_cast<std::size_t>(s.m) * s.n, 0.0f);
    qgemm_reference(s.m, s.n, s.k, q.a.data(), s.k, q.scales.data(), s.m,
                    q.b.data(), s.n, bp, ref.data(), s.n, ep);
    for (const auto& name : reg.variant_names()) {
      if (!reg.variant_supported(name)) continue;
      KernelRegistry::ScopedForce force(name);
      ASSERT_TRUE(force.ok());
      for (int threads : {1, 4}) {
        ThreadGuard guard(threads);
        const auto c = run_qgemm(s.m, s.n, s.k, q, bp, ep);
        EXPECT_EQ(0, std::memcmp(ref.data(), c.data(),
                                 ref.size() * sizeof(float)))
            << name << " threads=" << threads << " at " << s.m << 'x' << s.n
            << 'x' << s.k;
      }
    }
  }
}

TEST_F(KernelsTest, QgemmEveryTileBitExactOnEdgeShapes) {
  // Every variant x every registered qgemm tile, forced the way
  // AllTunableTilesBitIdentical forces sgemm tiles, on shapes that leave
  // partial tiles, partial K-groups (k % 4 != 0), the n == 1 dot-product
  // path and single rows; at zero points 0 / mid / 255 and every epilogue.
  KernelRegistry& reg = KernelRegistry::global();
  const int ms[] = {1, 7, 64, 129};
  const int ns[] = {1, 2, 17, 113};
  const int ks[] = {1, 3, 36, 71};
  const int zps[] = {0, 131, 255};
  Rng rng(45);
  for (const int m : ms) {
    for (const int n : ns) {
      for (const int k : ks) {
        const QgemmOperands q = random_qgemm_operands(m, n, k, rng);
        for (const int zp : zps) {
          QuantParams bp;
          bp.scale = 0.02f;
          bp.zero_point = zp;
          for (int epi = 0; epi < 3; ++epi) {
            QuantEpilogue ep;
            if (epi >= 1) ep.row_bias = q.bias.data();
            ep.relu = epi == 2;
            std::vector<float> ref(static_cast<std::size_t>(m) * n);
            qgemm_reference(m, n, k, q.a.data(), k, q.scales.data(), m,
                            q.b.data(), n, bp, ref.data(), n, ep);
            for (const auto& name : reg.variant_names()) {
              if (!reg.variant_supported(name)) continue;
              KernelRegistry::ScopedForce force(name);
              ASSERT_TRUE(force.ok());
              for (const auto& tile : reg.active().qgemm) {
                TileTuner::ScopedForcedTile forced(tile.mr, tile.nr);
                for (int threads : {1, 4}) {
                  ThreadGuard guard(threads);
                  const auto c = run_qgemm(m, n, k, q, bp, ep);
                  ASSERT_EQ(0, std::memcmp(ref.data(), c.data(),
                                           ref.size() * sizeof(float)))
                      << name << " tile " << tile.mr << 'x' << tile.nr
                      << " at " << m << 'x' << n << 'x' << k << " zp=" << zp
                      << " epilogue=" << epi << " threads=" << threads;
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelsTest, QgemmExactUpToMaxKAndRejectsLarger) {
  // k = 66311 is the largest K with k * 255 * 127 < 2^31: the extreme
  // operands (every product -127 * 255) reach the int32 limit exactly
  // there, with and without the zero-point correction. One more step would
  // overflow the accumulators, so qgemm refuses it.
  KernelRegistry& reg = KernelRegistry::global();
  const TunerOff tuner_off;
  const std::int64_t m = 2, k = 66311;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * (k + 1)), -127);
  std::vector<std::uint8_t> b(static_cast<std::size_t>((k + 1) * 2), 255);
  const std::vector<float> scales(static_cast<std::size_t>(m), 1.0e-9f);
  for (const std::int64_t n : {1, 2}) {
    for (const int zp : {0, 255}) {
      QuantParams bp;
      bp.scale = 1.0f;
      bp.zero_point = zp;
      std::vector<float> ref(static_cast<std::size_t>(m * n));
      qgemm_reference(m, n, k, a.data(), k, scales.data(), m, b.data(), n,
                      bp, ref.data(), n);
      for (const auto& name : reg.variant_names()) {
        if (!reg.variant_supported(name)) continue;
        KernelRegistry::ScopedForce force(name);
        ASSERT_TRUE(force.ok());
        std::vector<float> c(static_cast<std::size_t>(m * n), -1.0f);
        qgemm(m, n, k, a.data(), k, scales.data(), m, b.data(), n, bp,
              c.data(), n);
        EXPECT_EQ(0, std::memcmp(ref.data(), c.data(),
                                 ref.size() * sizeof(float)))
            << name << " n=" << n << " zp=" << zp;
      }
      std::vector<float> c(static_cast<std::size_t>(m * n));
      EXPECT_THROW(qgemm(m, n, k + 1, a.data(), k + 1, scales.data(), m,
                         b.data(), n, bp, c.data(), n),
                   Error);
    }
  }
}

// -------------------------------------------------------------- quantize --

TEST_F(KernelsTest, QuantizeEveryVariantBitExactIncludingTieEdges) {
  KernelRegistry& reg = KernelRegistry::global();
  // Adversarial values for ties-away rounding: the naive trunc(v + 0.5)
  // breaks on 0.49999997f (rounds to 1); exact halves must round away from
  // zero in both signs; values beyond the clamp must saturate.
  std::vector<float> src = {0.49999997f,  -0.49999997f, 0.5f,    -0.5f,
                            1.5f,         -1.5f,        2.5f,    -2.5f,
                            0.0f,         -0.0f,        127.49f, -127.49f,
                            127.5f,       -127.5f,      1.0e9f,  -1.0e9f,
                            254.49998f,   254.5f,       255.49f, 300.0f,
                            1.0e-40f,     -1.0e-40f,    3.49f,   -3.49f};
  Rng rng(101);
  for (int i = 0; i < 1000; ++i) {
    src.push_back(static_cast<float>(rng.normal()) * 80.0f);
  }
  const std::int64_t n = static_cast<std::int64_t>(src.size());
  QuantParams params;
  params.scale = 1.0f;
  params.zero_point = 7;

  std::vector<std::uint8_t> u8_ref(src.size());
  std::vector<std::int8_t> s8_ref(src.size());
  std::vector<float> deq_ref(src.size());
  {
    KernelRegistry::ScopedForce force("generic");
    ASSERT_TRUE(force.ok());
    quantize_u8(src.data(), n, params, u8_ref.data());
    quantize_s8(src.data(), n, 1.0f, s8_ref.data());
    dequantize_u8(u8_ref.data(), n, params, deq_ref.data());
  }
  for (const auto& name : reg.variant_names()) {
    if (!reg.variant_supported(name)) continue;
    KernelRegistry::ScopedForce force(name);
    ASSERT_TRUE(force.ok());
    std::vector<std::uint8_t> u8(src.size());
    std::vector<std::int8_t> s8(src.size());
    std::vector<float> deq(src.size());
    quantize_u8(src.data(), n, params, u8.data());
    quantize_s8(src.data(), n, 1.0f, s8.data());
    dequantize_u8(u8.data(), n, params, deq.data());
    EXPECT_EQ(0, std::memcmp(u8_ref.data(), u8.data(), u8.size())) << name;
    EXPECT_EQ(0, std::memcmp(s8_ref.data(), s8.data(), s8.size())) << name;
    EXPECT_EQ(0, std::memcmp(deq_ref.data(), deq.data(),
                             deq.size() * sizeof(float)))
        << name;
  }
}

TEST_F(KernelsTest, ReduceEveryVariantMatchesScalar) {
  KernelRegistry& reg = KernelRegistry::global();
  Rng rng(202);
  Tensor t(Shape{517});
  t.fill_normal(rng, 0.0f, 3.0f);
  t[13] = 1.0e9f;
  t[499] = -1.0e9f;
  float mx_ref = 0.0f, mn_ref = 0.0f;
  std::int64_t idx_ref = 0;
  {
    KernelRegistry::ScopedForce force("generic");
    ASSERT_TRUE(force.ok());
    mx_ref = max_value(t);
    mn_ref = min_value(t);
    idx_ref = argmax(t).second;
  }
  EXPECT_EQ(mx_ref, 1.0e9f);
  EXPECT_EQ(mn_ref, -1.0e9f);
  EXPECT_EQ(idx_ref, 13);
  for (const auto& name : reg.variant_names()) {
    if (!reg.variant_supported(name)) continue;
    KernelRegistry::ScopedForce force(name);
    ASSERT_TRUE(force.ok());
    EXPECT_EQ(max_value(t), mx_ref) << name;
    EXPECT_EQ(min_value(t), mn_ref) << name;
    EXPECT_EQ(argmax(t).second, idx_ref) << name;
  }
}

// ------------------------------------------------------------- workspace --

TEST(WorkspaceAlignment, EveryAllocationIs64ByteAligned) {
  static_assert(Workspace::kAlignment == 64);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  for (std::size_t n : {1u, 3u, 17u, 100u, 1000u, 100000u}) {
    auto* f = ws.floats(n);
    auto* b = ws.bytes(n);
    auto* i = ws.ints(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f) % Workspace::kAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % Workspace::kAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i) % Workspace::kAlignment, 0u);
  }
}

TEST(WorkspaceAlignment, GemmPackPatternKeepsPanelsAligned) {
  // The exact allocation pattern gemm_band uses: packed A then packed B out
  // of one scope, with the odd sizes real shapes produce. The SIMD micro
  // kernels rely on both panels being vector-aligned.
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  const std::int64_t mc = 128, nc = 256, kc = 256, mr = 12, nr = 48;
  float* packed_a =
      ws.floats(static_cast<std::size_t>((mc + mr - 1) / mr * mr * kc));
  float* packed_b =
      ws.floats(static_cast<std::size_t>((nc + nr - 1) / nr * nr * kc));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packed_a) %
                Workspace::kAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(packed_b) %
                Workspace::kAlignment,
            0u);
}

}  // namespace
}  // namespace dcn
