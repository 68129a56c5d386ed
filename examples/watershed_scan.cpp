// Whole-watershed scan with the early-exit cascade (src/scan).
//
// End-to-end demo of the production scanning shape: train the full
// SPP-Net detector, run the mini NAS campaign that picks the tiny int8
// screener, calibrate the stage-1 confidence threshold on a held-out
// validation watershed (cheapest operating point within the accuracy
// budget), then scan a fresh watershed — screener over every tile, full
// model only on the survivors, detections mapped to world coordinates
// and deduplicated across tile overlap. Finishes with the serving view:
// both stages as serve::Server pools on the virtual clock, reporting
// cascade tiles/sec against the full-model-only baseline.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "detect/sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/scheduler.hpp"
#include "scan/calibrate.hpp"
#include "scan/cascade.hpp"
#include "scan/pipeline.hpp"
#include "scan/screener.hpp"
#include "simgpu/spec.hpp"

namespace {

void write_file(const std::string& path, const std::string& body) {
  std::ofstream os(path);
  os << body;
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("watershed_scan",
                 "early-exit cascade scan of a synthetic watershed");
  flags.add_int("tile", 48, "scan tile size (pixels)");
  flags.add_double("overlap", 0.25, "tile overlap fraction");
  flags.add_int("terrain", 384, "training world edge (pixels)");
  flags.add_int("scan-terrain", 512, "validation/scan watershed edge");
  flags.add_int("epochs", 10, "full-model training epochs");
  flags.add_int("screener-epochs", 4, "screener proxy-training epochs");
  flags.add_int("seed", 2022, "master seed (data + weights)");
  flags.add_int("jobs", 0, "tensor-engine threads (0 = default)");
  flags.add_double("ap-budget", 1.0, "allowed cascade AP drop, points");
  flags.add_string("csv-prefix", "watershed_scan",
                   "prefix for exported CSVs (empty = no export)");
  if (!flags.parse(argc, argv)) return 0;

  set_log_level(LogLevel::kWarn);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::int64_t tile = flags.get_int("tile");
  const auto spec = simgpu::a5500_spec();

  // --- Train the full-accuracy detector on tile-sized patches -------------
  geo::DatasetConfig data_config;
  data_config.seed = seed;
  data_config.patch_size = tile;
  data_config.terrain.rows = data_config.terrain.cols =
      static_cast<int>(flags.get_int("terrain"));
  // Scan tiles are grid-aligned, so a crossing lands anywhere in the
  // tile — train with jitter spanning the tile, not the centered-patch
  // default, or localization never generalizes to the scan distribution.
  data_config.positive_jitter = tile / 2 - 4;
  const auto dataset = geo::DrainageDataset::synthesize(data_config);
  const geo::Split split = dataset.split(0.8, 3);
  std::printf("training set: %zu patches (%zu positive)\n", dataset.size(),
              dataset.num_positives());

  const detect::SppNetConfig full_config = detect::sppnet_candidate2();
  Rng rng(seed + 7);
  detect::SppNet full(full_config, rng);
  detect::TrainConfig train_config;
  train_config.epochs = static_cast<int>(flags.get_int("epochs"));
  train_config.verbose = false;
  (void)detect::train_detector(full, dataset, split, train_config);
  const double full_patch_ap =
      detect::evaluate_detector(full, dataset, split.test).average_precision;
  std::printf("full model %s: held-out AP %.3f\n\n", full_config.name.c_str(),
              full_patch_ap);

  // --- Mini NAS campaign for the int8 screener ----------------------------
  scan::ScreenerSearchConfig screener_config;
  screener_config.runner.input_size = tile;
  screener_config.runner.latency_batch = 64;
  screener_config.runner.device = spec;
  screener_config.runner.verbose = false;
  screener_config.train.epochs =
      static_cast<int>(flags.get_int("screener-epochs"));
  screener_config.train.verbose = false;
  screener_config.seed = seed + 100;
  scan::ScreenerSelection screener =
      scan::select_screener(dataset, split, screener_config);
  std::printf("screener campaign: %zu trials -> %s at %s "
              "(AP %.3f, %.0f img/s profiled)\n\n",
              screener.database.trials().size(),
              screener.config.name.c_str(),
              screener.chosen.precision == simgpu::Precision::kInt8 ? "int8"
                                                                    : "fp32",
              screener.chosen.metrics.average_precision,
              screener.chosen.metrics.throughput);

  // --- Calibrate the threshold on a held-out validation watershed ---------
  // Sparse roads: watersheds are overwhelmingly negative, the regime the
  // cascade exists for.
  geo::DatasetConfig water_config = data_config;
  water_config.terrain.rows = water_config.terrain.cols =
      static_cast<int>(flags.get_int("scan-terrain"));
  water_config.roads.spacing = 256;
  water_config.roads.density = 0.4;

  set_num_threads(static_cast<int>(flags.get_int("jobs")));
  scan::CascadeOptions scan_options;
  scan_options.tile_size = tile;
  scan_options.overlap = flags.get_double("overlap");
  geo::GeoTransform transform;  // 1 m/pixel at the origin (NAIP-like)

  Rng validation_rng(seed + 1);
  const geo::World validation =
      geo::synthesize_world(water_config, validation_rng);
  scan::CascadeOptions calibrate_options = scan_options;
  calibrate_options.threshold = 0.0;
  calibrate_options.evaluate_all = true;
  const scan::ScanResult validation_scan =
      scan::scan_watershed(validation.photo, transform, validation.crossings,
                           *screener.model, full, calibrate_options);

  scan::CalibratorOptions calibrator;
  calibrator.max_ap_drop_points = flags.get_double("ap-budget");
  // Relative stage costs; the defaults (full model ~10x the screener per
  // tile) are close enough for the demo — bench_cascade measures both.
  const scan::CalibrationResult calibration =
      scan::calibrate_threshold(validation_scan.scores, calibrator);
  std::printf("calibration: threshold %.6g keeps cascade AP %.3f "
              "(full %.3f, budget %.1f pts) at %.1f%% survivors\n\n",
              calibration.chosen.threshold, calibration.chosen.cascade_ap,
              calibration.full_ap, calibrator.max_ap_drop_points,
              calibration.chosen.survivor_fraction * 100.0);

  // --- Scan a fresh watershed at the calibrated threshold -----------------
  Rng scan_rng(seed + 2);
  geo::DatasetConfig scan_world_config = water_config;
  scan_world_config.seed = seed + 2;
  const geo::World watershed =
      geo::synthesize_world(scan_world_config, scan_rng);
  scan::CascadeOptions final_options = scan_options;
  final_options.threshold = calibration.chosen.threshold;
  const scan::ScanResult result =
      scan::scan_watershed(watershed.photo, transform, watershed.crossings,
                           *screener.model, full, final_options);

  std::printf("scan: %lld tiles, %.1f%% negative; %lld survivors "
              "(%.1f%%) reached the full model\n",
              static_cast<long long>(result.tiles),
              result.negative_fraction * 100.0,
              static_cast<long long>(result.survivors),
              result.survivor_fraction * 100.0);
  TextTable detections({"Tile", "World x", "World y", "Conf", "Matched"});
  for (const scan::ScanDetection& d : result.detections) {
    detections.add_row({std::to_string(d.tile), format_double(d.world_x, 1),
                        format_double(d.world_y, 1),
                        format_double(d.confidence, 3),
                        d.matched ? "yes" : "no"});
  }
  std::printf("%lld ground-truth crossings, %zu confirmed detections:\n%s\n",
              static_cast<long long>(watershed.crossings.size()),
              result.detections.size(), detections.to_string().c_str());

  // --- Serving view: per-stage pools on the virtual clock -----------------
  const graph::Graph screener_graph = graph::optimize_graph(
      graph::build_inference_graph(screener.config, tile));
  const graph::Graph full_graph = graph::optimize_graph(
      graph::build_inference_graph(full_config, tile));
  const bool int8_screener =
      screener.chosen.precision == simgpu::Precision::kInt8;

  scan::StagePlan stage1;
  stage1.graph = &screener_graph;
  ios::IosOptions stage1_ios;
  stage1_ios.batch = 64;
  if (int8_screener) stage1_ios.precision = simgpu::Precision::kInt8;
  stage1.schedule = ios::optimize_schedule(screener_graph, spec, stage1_ios);
  stage1.server.pool = "screener";
  stage1.server.batch.max_batch = 64;
  stage1.server.batch.timeout = 2.0e-4;  // offline drain: short flush
  stage1.server.device = spec;
  if (int8_screener) stage1.server.precision = simgpu::Precision::kInt8;

  scan::StagePlan stage2;
  stage2.graph = &full_graph;
  ios::IosOptions stage2_ios;
  stage2_ios.batch = 8;
  stage2.schedule = ios::optimize_schedule(full_graph, spec, stage2_ios);
  stage2.server.pool = "full";
  stage2.server.batch.max_batch = 8;
  stage2.server.batch.timeout = 2.0e-4;
  stage2.server.device = spec;

  std::vector<bool> survived;
  survived.reserve(result.scores.size());
  for (const scan::TileScore& score : result.scores) {
    survived.push_back(score.survived);
  }
  const scan::CascadeServingReport serving =
      scan::simulate_cascade_serving(stage1, stage2, survived, 0.0);
  const serve::ServingReport baseline =
      scan::simulate_single_stage(stage2, result.tiles, 0.0);
  const double baseline_tps =
      baseline.makespan > 0.0
          ? static_cast<double>(result.tiles) / baseline.makespan
          : 0.0;

  std::printf("%s\n%s\n", serving.stage1.to_string().c_str(),
              serving.stage2.to_string().c_str());
  std::printf("cascade: %.0f tiles/s  full-only baseline: %.0f tiles/s  "
              "speedup: %.2fx\n",
              serving.tiles_per_sec, baseline_tps,
              baseline_tps > 0.0 ? serving.tiles_per_sec / baseline_tps
                                 : 0.0);

  const std::string prefix = flags.get_string("csv-prefix");
  if (!prefix.empty()) {
    write_file(prefix + "_tiles.csv", scan::scan_to_csv(result));
    write_file(prefix + "_detections.csv", scan::detections_to_csv(result));
    write_file(prefix + "_sweep.csv", scan::sweep_to_csv(calibration));
  }
  return 0;
}
