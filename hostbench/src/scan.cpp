// scan: drains a seeded 1024x1024 watershed offline through
// scan::scan_watershed at batch 32, with bench_cascade's road settings and
// 48 px tiles at overlap 0.25 (841 tiles, ~95% negative). Stage 1 is the
// committed screener, stage 2 SPP-Net #2; each pass runs both stages in
// fp32 or both in int8. Batch-32 convolutions, max pools, the tiny
// screener's per-call overhead and the module path scan_watershed runs
// dominate here, not in `online`.
#include <cmath>
#include <cstdio>
#include <exception>

#include "checks.hpp"
#include "core/rng.hpp"
#include "detect/calibration.hpp"
#include "geo/dataset.hpp"
#include "geo/tiling.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/scheduler.hpp"
#include "models.hpp"
#include "scan/cascade.hpp"
#include "scan/pipeline.hpp"
#include "simgpu/spec.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

constexpr std::int64_t kTile = 48;
constexpr double kOverlap = 0.25;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kWatershed = 1024;
constexpr std::int64_t kCompactWatershed = 512;
/// BENCH_cascade.json's committed survivor_fraction.
constexpr double kSurvivorShare = 0.1939;
constexpr std::int64_t kCalibrationTiles = 8;
/// One round of the timed phase: an int8 pass costs ~5 fp32 passes, and
/// the two fp32 passes per round keep scan_to_csv compared in every run.
constexpr bool kRound[] = {false, false, true};

const char* precision_name(bool int8) { return int8 ? "int8" : "fp32"; }

struct ScanState {
  dcn::geo::World world;
  dcn::geo::GeoTransform transform;
  std::vector<dcn::geo::Tile> tiles;
  std::unique_ptr<dcn::detect::SppNet> screener;
  std::unique_ptr<dcn::detect::SppNet> full;
  std::unique_ptr<dcn::Module> screener_int8;
  std::unique_ptr<dcn::Module> full_int8;
  SurvivorCut cut[2];
  std::vector<bool> survived_fp32;

  dcn::Module& stage1(bool int8) { return int8 ? *screener_int8 : *screener; }
  dcn::Module& stage2(bool int8) { return int8 ? *full_int8 : *full; }
  std::int64_t size() const { return static_cast<std::int64_t>(tiles.size()); }
};

dcn::scan::CascadeOptions cascade_options(double threshold) {
  dcn::scan::CascadeOptions options;
  options.tile_size = kTile;
  options.overlap = kOverlap;
  options.batch_size = kBatch;
  options.threshold = threshold;
  return options;
}

dcn::Tensor tile_batch(const ScanState& s, std::size_t first,
                       std::size_t count) {
  dcn::Tensor batch(dcn::Shape{static_cast<std::int64_t>(count), 4, kTile,
                               kTile});
  for (std::size_t i = 0; i < count; ++i) {
    const dcn::Tensor image = dcn::geo::extract_tile(
        s.world.photo, s.tiles[(first + i) % s.tiles.size()]);
    std::copy(image.data(), image.data() + image.numel(),
              batch.data() + static_cast<std::int64_t>(i) * image.numel());
  }
  return batch;
}

std::unique_ptr<ScanState> setup_scan(Run& run, std::int64_t edge) {
  auto s = std::make_unique<ScanState>();
  {
    ScopedSpan span(run.tracer, "geo", "geo.synth");
    dcn::geo::DatasetConfig config;
    config.seed = run.seed;
    config.patch_size = kTile;
    config.terrain.rows = config.terrain.cols = edge;
    config.roads.spacing = 256;
    config.roads.density = 0.4;
    dcn::Rng rng(run.seed);
    s->world = dcn::geo::synthesize_world(config, rng);
    s->tiles = dcn::geo::make_tiles(s->world.photo.rows(),
                                    s->world.photo.cols(), kTile, kOverlap,
                                    s->transform);
  }
  s->screener = make_net(run, screener_model(), kWeightSeed + 1);
  s->full = make_net(run, full_model(), kWeightSeed);
  dcn::Tensor calibration(dcn::Shape{kCalibrationTiles, 4, kTile, kTile});
  {
    const auto picks = dcn::detect::calibration_split(
        s->size(), kCalibrationTiles, run.seed + 3);
    for (std::size_t i = 0; i < picks.size(); ++i) {
      const dcn::Tensor one =
          tile_batch(*s, static_cast<std::size_t>(picks[i]), 1);
      std::copy(one.data(), one.data() + one.numel(),
                calibration.data() + static_cast<std::int64_t>(i) * one.numel());
    }
  }
  s->screener_int8 = int8_module(run, *s->screener, calibration);
  s->full_int8 = int8_module(run, *s->full, calibration);

  // One screener-only pass per precision (a threshold above every
  // confidence keeps stage 2 idle) gives the cut at the committed survivor
  // share; then the full model runs at the batch sizes a pass feeds it.
  warm_up(run, [&] {
    for (const bool int8 : {false, true}) {
      const dcn::scan::ScanResult screened = dcn::scan::scan_watershed(
          s->world.photo, s->transform, s->world.crossings, s->stage1(int8),
          s->stage2(int8), cascade_options(2.0));
      std::vector<float> confidences;
      for (const auto& score : screened.scores) {
        confidences.push_back(score.screener_confidence);
      }
      s->cut[int8] = survivor_cut(confidences, kSurvivorShare);
      const std::int64_t target = s->cut[int8].target;
      for (const std::int64_t n : {std::min(kBatch, target), target % kBatch}) {
        if (n > 0) {
          (void)s->stage2(int8).forward(
              tile_batch(*s, 0, static_cast<std::size_t>(n)));
        }
      }
    }
  });
  return s;
}

struct Pass {
  double seconds = 0.0;
  std::int64_t invalid_tiles = 0;
  dcn::scan::ScanResult result;
};

Pass scan_pass(Run& run, ScanState& s, bool int8, double threshold) {
  const std::string p = precision_name(int8);
  ScopedSpan span(run.tracer, "scan", "scan.pass." + p, run.next_op());
  TracedModule screener(s.stage1(int8), run.tracer, "detect",
                        "detect.screener." + p);
  TracedModule full(s.stage2(int8), run.tracer, "detect", "detect.full." + p);
  Pass pass;
  const double t0 = now();
  pass.result = dcn::scan::scan_watershed(s.world.photo, s.transform,
                                          s.world.crossings, screener, full,
                                          cascade_options(threshold));
  pass.seconds = now() - t0;
  for (const auto& score : pass.result.scores) {
    if (!std::isfinite(score.screener_confidence) ||
        !std::isfinite(score.full_confidence)) {
      ++pass.invalid_tiles;
    }
  }
  return pass;
}

// Per-layer metrics from the traced passes of `s`.
void report_scan_layers(Run& run, ScanState& s) {
  for (const bool int8 : {false, true}) {
    const std::string p = precision_name(int8);
    const auto passes = run.tracer.named("scan.pass." + p);
    double self = 0.0;
    for (const Span* pass : passes) self += run.tracer.self_seconds(*pass);
    const double tiles = static_cast<double>(passes.size() * s.tiles.size());
    const double survivors =
        static_cast<double>(passes.size()) * static_cast<double>(s.cut[int8].target);
    const auto n = static_cast<std::int64_t>(passes.size());
    run.results.add(Kind::kLayer, "detect.screener." + p + "_ms_per_tile",
                    run.tracer.total("detect.screener." + p + ".infer").first *
                        1e3 / tiles,
                    "ms", "host", n);
    run.results.add(Kind::kLayer, "detect.full." + p + "_ms_per_survivor",
                    run.tracer.total("detect.full." + p + ".infer").first *
                        1e3 / survivors,
                    "ms", "host", n);
    run.results.add(Kind::kLayer, "scan.self." + p + "_ms_per_tile",
                    self * 1e3 / tiles, "ms", "host", n);
  }
  run.results.add(Kind::kLayer, "scan.survivor_share",
                  static_cast<double>(s.cut[0].target) /
                      static_cast<double>(s.size()),
                  "ratio", "host", 1);

  std::vector<double> extract;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(run.tracer, "geo", "geo.extract_tile");
    const double t0 = now();
    for (const auto& tile : s.tiles) {
      (void)dcn::geo::extract_tile(s.world.photo, tile);
    }
    extract.push_back((now() - t0) / static_cast<double>(s.size()));
  }
  run.results.add(Kind::kLayer, "geo.extract_tile_us", median(extract) * 1e6,
                  "us", "host", 3);

  // Virtual clock: bench_cascade's stage plans over the fp32 survivors.
  const auto spec = dcn::simgpu::a5500_spec();
  dcn::graph::Graph graphs[2];
  {
    ScopedSpan span(run.tracer, "graph", "graph.optimize");
    graphs[0] = dcn::graph::optimize_graph(
        dcn::graph::build_inference_graph(s.screener->config(), kTile));
    graphs[1] = dcn::graph::optimize_graph(
        dcn::graph::build_inference_graph(s.full->config(), kTile));
  }
  dcn::scan::StagePlan plans[2];
  const std::int64_t batches[2] = {64, 8};
  const char* pools[2] = {"screener", "full"};
  for (int i = 0; i < 2; ++i) {
    ScopedSpan span(run.tracer, "ios", "ios.optimize_schedule");
    dcn::ios::IosOptions ios;
    ios.batch = batches[i];
    plans[i].graph = &graphs[i];
    plans[i].schedule = dcn::ios::optimize_schedule(graphs[i], spec, ios);
    plans[i].server.pool = pools[i];
    plans[i].server.batch.max_batch = static_cast<int>(batches[i]);
    plans[i].server.batch.timeout = 2.0e-4;
    plans[i].server.device = spec;
  }
  dcn::scan::CascadeServingReport serving;
  {
    ScopedSpan span(run.tracer, "serve", "serve.simulate_cascade");
    serving = dcn::scan::simulate_cascade_serving(plans[0], plans[1],
                                                  s.survived_fp32, 0.0);
  }
  const auto survivors = serving.survivors;
  run.results.add(Kind::kLayer, "serve.screener.occupancy",
                  serving.stage1.occupancy(), "ratio", "sim", s.size());
  run.results.add(Kind::kLayer, "serve.full.occupancy",
                  serving.stage2.occupancy(), "ratio", "sim", survivors);
  run.results.add(Kind::kLayer, "serve.full.mean_batch",
                  serving.stage2.mean_batch_size, "count", "sim",
                  serving.stage2.batches);
  run.results.add(Kind::kLayer, "serve.full.p50_ms", serving.stage2.p50 * 1e3,
                  "ms", "sim", survivors);
  run.results.add(Kind::kLayer, "serve.cascade.tiles_per_s",
                  serving.tiles_per_sec, "tiles/s", "sim", s.size());
}

}  // namespace

void run_scan(Run& run) {
  auto s = setup_scan(run, kWatershed);
  double threshold[2] = {s->cut[0].threshold, s->cut[1].threshold};
  if (run.injected("shift-threshold")) {
    for (double& t : threshold) {
      t = std::nextafter(static_cast<float>(t), 2.0f);
    }
  }

  run.begin_timed();
  std::vector<double> seconds[2];
  std::string first_csv[2];
  // Rounds of two fp32 passes and one int8 pass until --seconds, so both
  // precisions sample the same stretch of host time.
  const double start = now();
  do {
    for (const bool int8 : kRound) {
      const std::string p = precision_name(int8);
      const auto pass = static_cast<int>(seconds[int8].size());
      try {
        Pass out = scan_pass(run, *s, int8, threshold[int8]);
        run.results.count(s->size(), out.invalid_tiles);
        if (run.injected("flip-bit") && pass == 1) {
          auto& score = out.result.scores.front();
          score.screener_confidence = flip_bit(score.screener_confidence);
        }
        const std::string csv = dcn::scan::scan_to_csv(out.result);
        if (pass == 0) {
          first_csv[int8] = csv;
        } else {
          run.results.check(csv == first_csv[int8],
                            "scan " + p + " pass " + std::to_string(pass) +
                                ": scan_to_csv differs from pass 0");
        }
        run.results.check(
            out.result.survivors == s->cut[int8].target,
            "scan " + p + " pass " + std::to_string(pass) + ": " +
                std::to_string(out.result.survivors) +
                " survivors, quantile target " +
                std::to_string(s->cut[int8].target));
        if (!int8 && pass == 0) {
          for (const auto& score : out.result.scores) {
            s->survived_fp32.push_back(score.survived);
          }
        }
        seconds[int8].push_back(out.seconds);
      } catch (const std::exception& e) {
        run.results.count(s->size(), s->size());
        std::fprintf(stderr, "hostbench: scan %s pass %d threw: %s\n",
                     p.c_str(), pass, e.what());
      }
    }
  } while (now() - start < run.seconds);
  run.end_timed();

  for (const bool int8 : {false, true}) {
    report_phase(run, precision_name(int8), seconds[int8],
                 static_cast<double>(s->size()) / median(seconds[int8]));
  }
  std::printf("scan: %lld tiles, %lld/%lld survivors (fp32/int8), %zu + %zu "
              "passes\n",
              static_cast<long long>(s->size()),
              static_cast<long long>(s->cut[0].target),
              static_cast<long long>(s->cut[1].target), seconds[0].size(),
              seconds[1].size());
  if (run.traced()) report_scan_layers(run, *s);
}

void profile_scan(Run& run) {
  ScopedSpan span(run.tracer, "bench", "profile.scan");
  auto s = setup_scan(run, kCompactWatershed);
  for (const bool int8 : {false, true}) {
    Pass out = scan_pass(run, *s, int8, s->cut[int8].threshold);
    if (!int8) {
      for (const auto& score : out.result.scores) {
        s->survived_fp32.push_back(score.survived);
      }
    }
  }
  report_scan_layers(run, *s);
}

}  // namespace hostbench
