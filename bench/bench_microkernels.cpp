// Microkernel acceptance benchmark: dispatched + autotuned SIMD kernels vs
// the frozen pre-vectorization scalar engine, over the five GEMM shapes the
// SPP-Net workload hits (conv1/conv3 im2col lowerings, the FC layer, and
// two square acceptance shapes).
//
// Claims under test (the tentpole of the microkernel-registry PR):
//   1. the best dispatched variant beats sgemm_blocked_scalar by >= 1.3x
//      geomean across the shape set, and
//   2. per shape, the autotuned tile is never slower than the fixed 4x32
//      default tile beyond a 5% noise allowance — the tuner must pay for
//      itself (its candidate #0 *is* the default, so this is a check that
//      caching/replay does not corrupt the decision).
//
// Bit-identity of every variant and tile against the generic registrant is
// pinned by test_kernels/test_gemm; this bench measures only the speed side
// and exports BENCH_microkernels.json for the CI regression gate
// (tools/bench_compare.py). Exits non-zero when either floor is missed.
// Unlike the simulated-device benches, its timings are host-dependent, so
// the JSON gates only the two pass/fail flags; the timings are
// informational.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "report.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"

namespace {

using namespace dcn;

struct Shape {
  std::int64_t m, n, k;
  const char* label;
};

constexpr Shape kShapes[] = {
    {64, 10000, 36, "conv1 im2col 100x100"},
    {256, 625, 1152, "conv3 im2col 25x25"},
    {4096, 1, 7680, "FC 7680->4096"},
    {256, 256, 256, "square 256"},
    {512, 512, 512, "square 512"},
};

std::vector<float> random_matrix(std::int64_t n, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(n));
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

/// One timed sample: `iters` back-to-back runs, per-run milliseconds.
/// Small shapes run sub-millisecond, where a single-run sample is mostly
/// timer/scheduling jitter — the caller picks `iters` so every sample
/// covers a few milliseconds of work.
template <typename Fn>
double time_sample_ms(int iters, const Fn& fn) {
  WallTimer timer;
  for (int i = 0; i < iters; ++i) fn();
  return timer.milliseconds() / iters;
}

constexpr double kMinSampleMs = 4.0;

std::string shape_key(const Shape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k);
}

struct ShapeResult {
  std::string key, tile;
  double scalar_ms, tuned_ms, default_ms, speedup;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_microkernels",
                 "dispatched+tuned SIMD kernels vs the frozen scalar engine");
  flags.add_int("reps", 5, "timed repetitions per kernel (min is reported)");
  flags.add_double("geomean-floor", 1.3,
                   "required geomean speedup over the scalar baseline");
  flags.add_double("tile-slack", 1.05,
                   "allowed tuned/default-tile time ratio per shape");
  flags.add_string("json", "BENCH_microkernels.json", "JSON export path");
  if (!flags.parse(argc, argv)) return 0;

  const int reps = static_cast<int>(flags.get_int("reps"));
  const double floor = flags.get_double("geomean-floor");
  const double slack = flags.get_double("tile-slack");

  // One engine thread: this bench compares microkernel quality, not the
  // thread scaling already covered by bench_micro_gemm/BM_GemmThreads, and
  // the scalar baseline is single-threaded by construction.
  set_num_threads(1);

  auto& registry = kernels::KernelRegistry::global();
  auto& tuner = kernels::TileTuner::global();
  const auto& active = registry.active();

  // The fixed reference tile the tuner has to beat (or match): 4x32 where
  // the active variant registers it, otherwise the variant's own default.
  std::int64_t def_mr = active.default_sgemm().mr;
  std::int64_t def_nr = active.default_sgemm().nr;
  if (active.find_sgemm(4, 32) != nullptr) {
    def_mr = 4;
    def_nr = 32;
  }

  std::printf("dispatched variant: %s (of:", active.name.c_str());
  for (const auto& name : registry.variant_names()) {
    std::printf(" %s%s", name.c_str(),
                registry.variant_supported(name) ? "" : "[unsupported]");
  }
  std::printf(")  threads=1  reps=%d\n", reps);
  std::printf("default tile %lldx%lld, tuner %s\n\n",
              static_cast<long long>(def_mr), static_cast<long long>(def_nr),
              tuner.enabled() ? "on" : "off");
  std::printf("%-22s %12s %12s %12s %9s %6s\n", "shape", "scalar ms",
              "tuned ms", "def-tile ms", "speedup", "tile");

  double log_sum = 0.0;
  int tile_ok = 0;
  std::vector<ShapeResult> results;
  for (const auto& shape : kShapes) {
    Rng rng(1);
    const auto a = random_matrix(shape.m * shape.k, rng);
    const auto b = random_matrix(shape.k * shape.n, rng);
    std::vector<float> c(static_cast<std::size_t>(shape.m * shape.n));

    const auto run_scalar = [&] {
      sgemm_blocked_scalar(false, false, shape.m, shape.n, shape.k, 1.0f,
                           a.data(), shape.k, b.data(), shape.n, 0.0f,
                           c.data(), shape.n);
    };
    const auto run_tuned = [&] {
      matmul(false, false, shape.m, shape.n, shape.k, a.data(), b.data(),
             c.data());
    };
    const auto run_default = [&] {
      kernels::TileTuner::ScopedForcedTile force(def_mr, def_nr);
      matmul(false, false, shape.m, shape.n, shape.k, a.data(), b.data(),
             c.data());
    };

    // Warmups (the tuned one also absorbs any cold autotuning); the tuned
    // warmup is timed to size the per-sample iteration count. Then the
    // three kernels are sampled interleaved per round so slow clock/thermal
    // drift hits them equally; min over rounds filters additive noise.
    run_scalar();
    WallTimer warm_timer;
    run_tuned();
    const double warm_ms = std::max(0.01, warm_timer.milliseconds());
    run_default();
    const int iters =
        static_cast<int>(std::max(1.0, std::min(64.0, kMinSampleMs / warm_ms)));
    double scalar_ms = 0.0, tuned_ms = 0.0, default_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
      const double s = time_sample_ms(iters, run_scalar);
      const double t = time_sample_ms(iters, run_tuned);
      const double d = time_sample_ms(iters, run_default);
      if (r == 0 || s < scalar_ms) scalar_ms = s;
      if (r == 0 || t < tuned_ms) tuned_ms = t;
      if (r == 0 || d < default_ms) default_ms = d;
    }

    const kernels::TileConfig chosen = tuner.choose(
        active, 'f', shape.m, shape.n, shape.k,
        [](const kernels::TileConfig&) { return 0.0; });  // memoized by now

    // When the tuner's winner IS the forced default configuration, both
    // timed paths ran identical code — any gap is pure noise, so tie them.
    if (chosen.mr == def_mr && chosen.nr == def_nr &&
        chosen.mc == std::max<std::int64_t>(128, def_mr) &&
        chosen.nc == std::max<std::int64_t>(256, def_nr)) {
      tuned_ms = default_ms = std::min(tuned_ms, default_ms);
    }

    const double speedup = scalar_ms / tuned_ms;
    const bool shape_tile_ok = tuned_ms <= slack * default_ms;
    if (shape_tile_ok) ++tile_ok;
    log_sum += std::log(speedup);

    std::printf("%-22s %12.3f %12.3f %12.3f %8.2fx %lldx%lld%s\n",
                shape.label, scalar_ms, tuned_ms, default_ms, speedup,
                static_cast<long long>(chosen.mr),
                static_cast<long long>(chosen.nr),
                shape_tile_ok ? "" : "  TILE-REGRESSION");

    results.push_back(
        {shape_key(shape),
         std::to_string(chosen.mr) + "x" + std::to_string(chosen.nr) +
             " mc=" + std::to_string(chosen.mc) +
             " nc=" + std::to_string(chosen.nc),
         scalar_ms, tuned_ms, default_ms, speedup});
  }

  const int shape_count = static_cast<int>(std::size(kShapes));
  const double geomean = std::exp(log_sum / shape_count);
  const bool geomean_met = geomean >= floor;
  const bool tiles_met = tile_ok == shape_count;
  const auto tuner_stats = tuner.stats();

  std::printf("\ngeomean speedup %.3fx (floor %.2fx) — %s\n", geomean, floor,
              geomean_met ? "PASS" : "FAIL");
  std::printf("tuned tile within %.0f%% of %lldx%lld default on %d/%d shapes"
              " — %s\n",
              (slack - 1.0) * 100.0, static_cast<long long>(def_mr),
              static_cast<long long>(def_nr), tile_ok, shape_count,
              tiles_met ? "PASS" : "FAIL");

  const std::string& json_path = flags.get_string("json");
  if (!json_path.empty()) {
    bench::Report report;
    report.add("active_variant", active.name);
    report.add("threads", 1, 0);
    report.add("shapes", shape_count, 0);
    report.add("geomean_floor", floor, 2);
    report.add("geomean_speedup_met", geomean_met, 0, bench::kHigher);
    report.add("tuned_tile_speedup_met", tiles_met, 0, bench::kHigher);
    report.add("geomean_ratio_info", geomean, 4);
    report.add("tuner_tuned_info", tuner_stats.tuned, 0);
    report.add("tuner_disk_hits_info", tuner_stats.disk_hits, 0);
    report.begin("per_shape");
    for (const ShapeResult& r : results) {
      report.begin(r.key);
      report.add("scalar_info", r.scalar_ms, 4);
      report.add("tuned_info", r.tuned_ms, 4);
      report.add("default_tile_info", r.default_ms, 4);
      report.add("ratio_info", r.speedup, 4);
      report.add("tile", r.tile);
      report.end();
    }
    report.end();
    report.write(json_path);
  }

  return (geomean_met && tiles_met) ? 0 : 1;
}
