// Cascade scanning benchmark: early-exit cascade vs full-model-only scan
// of a synthetic watershed.
//
// Claim under test (the scan subsystem's reason to exist): on watershed
// imagery that is overwhelmingly negative (>= 95% of tiles contain no
// crossing), screening every tile with the NAS-selected int8 screener and
// sending only survivors to the full SPP-Net sustains at least 3x the
// tiles/sec of scanning with the full model alone, while the cascade's AP
// over the same tiles stays within 1.0 point of the full model's. The
// stage-1 threshold is not hand-picked: it is calibrated on a held-out
// validation watershed (cheapest operating point within the AP budget)
// and applied unchanged to the benchmark watershed.
//
// Throughput comes from the virtual-clock serving simulation (both stages
// as serve::Server pools, offline drain regime); accuracy comes from real
// tensor-engine inference of the trained models — so the JSON is
// byte-stable across hosts and committed as a CI regression baseline.
// Exits non-zero when any floor is missed.
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "detect/sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "report.hpp"
#include "scan/calibrate.hpp"
#include "scan/cascade.hpp"
#include "scan/pipeline.hpp"
#include "scan/screener.hpp"
#include "simgpu/device.hpp"
#include "simgpu/spec.hpp"

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_cascade",
                 "early-exit cascade vs full-model-only watershed scanning");
  flags.add_int("tile", 48, "scan tile size (pixels)");
  flags.add_double("overlap", 0.25, "tile overlap fraction");
  flags.add_int("terrain", 384, "training world edge (pixels)");
  flags.add_int("scan-terrain", 512, "validation/benchmark watershed edge");
  flags.add_int("epochs", 12, "full-model training epochs");
  flags.add_int("screener-epochs", 6, "screener proxy-training epochs");
  flags.add_int("screener-batch", 64, "screener serving batch");
  flags.add_int("full-batch", 8, "full-model serving batch");
  flags.add_int("seed", 2022, "master seed (data + weights)");
  flags.add_double("ap-budget", 1.0, "allowed cascade AP drop, points");
  flags.add_double("calibration-margin", 0.5,
                   "fraction of the AP budget the calibrator may spend "
                   "(the rest absorbs validation->scan generalization)");
  flags.add_double("speedup-floor", 3.0, "required cascade tiles/sec gain");
  flags.add_double("negative-floor", 0.95,
                   "required negative-tile fraction of the scan watershed");
  flags.add_string("json", "BENCH_cascade.json", "JSON export path");
  if (!flags.parse(argc, argv)) return 0;

  set_log_level(LogLevel::kWarn);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::int64_t tile = flags.get_int("tile");
  const std::int64_t screener_batch = flags.get_int("screener-batch");
  const std::int64_t full_batch = flags.get_int("full-batch");
  const auto spec = simgpu::a5500_spec();

  // --- Models: train the full detector, NAS-select the screener -----------
  geo::DatasetConfig data_config;
  data_config.seed = seed;
  data_config.patch_size = tile;
  data_config.terrain.rows = data_config.terrain.cols =
      static_cast<int>(flags.get_int("terrain"));
  // Grid-aligned scan tiles see crossings anywhere in the tile; train
  // with matching jitter so localization holds on the scan distribution.
  data_config.positive_jitter = tile / 2 - 4;
  const auto dataset = geo::DrainageDataset::synthesize(data_config);
  const geo::Split split = dataset.split(0.8, 3);

  const detect::SppNetConfig full_config = detect::sppnet_candidate2();
  Rng rng(seed + 7);
  detect::SppNet full(full_config, rng);
  detect::TrainConfig train_config;
  train_config.epochs = static_cast<int>(flags.get_int("epochs"));
  train_config.verbose = false;
  (void)detect::train_detector(full, dataset, split, train_config);

  scan::ScreenerSearchConfig screener_config;
  screener_config.runner.input_size = tile;
  screener_config.runner.latency_batch = screener_batch;
  screener_config.runner.device = spec;
  screener_config.runner.verbose = false;
  screener_config.train.epochs =
      static_cast<int>(flags.get_int("screener-epochs"));
  screener_config.train.verbose = false;
  screener_config.seed = seed + 100;
  scan::ScreenerSelection screener =
      scan::select_screener(dataset, split, screener_config);
  const bool int8_screener =
      screener.chosen.precision == simgpu::Precision::kInt8;

  // --- Serving plans + measured per-tile stage costs -----------------------
  const graph::Graph screener_graph = graph::optimize_graph(
      graph::build_inference_graph(screener.config, tile));
  const graph::Graph full_graph = graph::optimize_graph(
      graph::build_inference_graph(full_config, tile));

  scan::StagePlan stage1;
  stage1.graph = &screener_graph;
  ios::IosOptions stage1_ios;
  stage1_ios.batch = screener_batch;
  if (int8_screener) stage1_ios.precision = simgpu::Precision::kInt8;
  stage1.schedule = ios::optimize_schedule(screener_graph, spec, stage1_ios);
  stage1.server.pool = "screener";
  stage1.server.batch.max_batch = static_cast<int>(screener_batch);
  // Offline drain: the whole scan is queued at t = 0, so a long flush
  // timeout only stalls the trailing partial batch. Keep it short.
  stage1.server.batch.timeout = 2.0e-4;
  stage1.server.device = spec;
  if (int8_screener) {
    stage1.server.precision = simgpu::Precision::kInt8;
  }

  scan::StagePlan stage2;
  stage2.graph = &full_graph;
  ios::IosOptions stage2_ios;
  stage2_ios.batch = full_batch;
  stage2.schedule = ios::optimize_schedule(full_graph, spec, stage2_ios);
  stage2.server.pool = "full";
  stage2.server.batch.max_batch = static_cast<int>(full_batch);
  stage2.server.batch.timeout = 2.0e-4;
  stage2.server.device = spec;

  simgpu::Device stage1_device(spec);
  simgpu::Device stage2_device(spec);
  const double stage1_cost =
      ios::measure_latency(screener_graph, stage1.schedule, stage1_device,
                           screener_batch, 1, 3,
                           int8_screener ? simgpu::Precision::kInt8
                                         : simgpu::Precision::kFp32) /
      static_cast<double>(screener_batch);
  const double stage2_cost =
      ios::measure_latency(full_graph, stage2.schedule, stage2_device,
                           full_batch) /
      static_cast<double>(full_batch);

  // --- Calibrate on a held-out validation watershed ------------------------
  geo::GeoTransform transform;
  geo::DatasetConfig water_config = data_config;
  water_config.terrain.rows = water_config.terrain.cols =
      static_cast<int>(flags.get_int("scan-terrain"));
  water_config.roads.spacing = 256;
  water_config.roads.density = 0.4;

  scan::CascadeOptions scan_options;
  scan_options.tile_size = tile;
  scan_options.overlap = flags.get_double("overlap");
  scan_options.batch_size = screener_batch;

  Rng validation_rng(seed + 1);
  const geo::World validation =
      geo::synthesize_world(water_config, validation_rng);
  scan::CascadeOptions calibrate_options = scan_options;
  calibrate_options.threshold = 0.0;
  calibrate_options.evaluate_all = true;
  const scan::ScanResult validation_scan =
      scan::scan_watershed(validation.photo, transform, validation.crossings,
                           *screener.model, full, calibrate_options);
  // The calibrator spends only a fraction of the budget: the threshold is
  // chosen on the validation watershed but judged on the benchmark one,
  // and the margin absorbs the generalization gap between them.
  scan::CalibratorOptions calibrator;
  calibrator.max_ap_drop_points =
      flags.get_double("ap-budget") * flags.get_double("calibration-margin");
  calibrator.stage1_cost_per_tile = stage1_cost;
  calibrator.stage2_cost_per_tile = stage2_cost;
  const scan::CalibrationResult calibration =
      scan::calibrate_threshold(validation_scan.scores, calibrator);

  // --- Scan the benchmark watershed at the calibrated threshold ------------
  // evaluate_all gives the full model's AP over the same tiles (the
  // accuracy reference); `survived` still reflects the threshold, so the
  // serving simulation times the real cascade.
  geo::DatasetConfig bench_world_config = water_config;
  bench_world_config.seed = seed + 2;
  Rng bench_rng(seed + 2);
  const geo::World watershed =
      geo::synthesize_world(bench_world_config, bench_rng);
  scan::CascadeOptions bench_options = scan_options;
  bench_options.threshold = calibration.chosen.threshold;
  bench_options.evaluate_all = true;
  const scan::ScanResult result =
      scan::scan_watershed(watershed.photo, transform, watershed.crossings,
                           *screener.model, full, bench_options);
  const double ap_delta_points =
      (result.full_ap - result.cascade_ap) * 100.0;

  // --- Serving simulation: cascade vs full-only, offline drain -------------
  std::vector<bool> survived;
  survived.reserve(result.scores.size());
  for (const scan::TileScore& score : result.scores) {
    survived.push_back(score.survived);
  }
  const scan::CascadeServingReport cascade_serving =
      scan::simulate_cascade_serving(stage1, stage2, survived, 0.0);
  const serve::ServingReport full_serving =
      scan::simulate_single_stage(stage2, result.tiles, 0.0);
  const double full_tps =
      full_serving.makespan > 0.0
          ? static_cast<double>(result.tiles) / full_serving.makespan
          : 0.0;
  const double speedup =
      full_tps > 0.0 ? cascade_serving.tiles_per_sec / full_tps : 0.0;

  // --- Report + gate --------------------------------------------------------
  TextTable table({"Scan", "Tiles/s", "Makespan", "Stage-2 share", "AP"});
  table.add_row({"full only", format_double(full_tps, 0),
                 format_ms(full_serving.makespan * 1e3), "100.0%",
                 format_percent(result.full_ap)});
  table.add_row({"cascade", format_double(cascade_serving.tiles_per_sec, 0),
                 format_ms(cascade_serving.makespan * 1e3),
                 format_percent(result.survivor_fraction),
                 format_percent(result.cascade_ap)});
  std::printf("watershed %lldx%lld, %lld tiles (%.1f%% negative), "
              "screener %s (%s), threshold %.6g\n\n%s\n",
              static_cast<long long>(watershed.photo.rows()),
              static_cast<long long>(watershed.photo.cols()),
              static_cast<long long>(result.tiles),
              result.negative_fraction * 100.0,
              screener.config.name.c_str(), int8_screener ? "int8" : "fp32",
              calibration.chosen.threshold, table.to_string().c_str());

  const double speedup_floor = flags.get_double("speedup-floor");
  const double negative_floor = flags.get_double("negative-floor");
  const double ap_budget = flags.get_double("ap-budget");
  const bool speedup_ok = speedup >= speedup_floor;
  const bool accuracy_ok = ap_delta_points <= ap_budget;
  const bool negative_ok = result.negative_fraction >= negative_floor;
  std::printf("cascade speedup: %.2fx tiles/sec (target >= %.2fx) %s\n",
              speedup, speedup_floor, speedup_ok ? "OK" : "FAIL");
  std::printf("cascade AP delta: %.2f points (budget %.2f) %s\n",
              ap_delta_points, ap_budget, accuracy_ok ? "OK" : "FAIL");
  std::printf("negative tiles: %.1f%% (floor %.1f%%) %s\n",
              result.negative_fraction * 100.0, negative_floor * 100.0,
              negative_ok ? "OK" : "FAIL");

  bench::Report report;
  report.add("screener", screener.config.name);
  report.add("screener_precision", int8_screener ? "int8" : "fp32");
  report.add("full_model", full_config.name);
  report.add("tiles", result.tiles, 0);
  report.add("threshold", calibration.chosen.threshold, 6);
  report.add("negative_fraction", result.negative_fraction, 4);
  report.add("survivor_fraction", result.survivor_fraction, 4);
  report.add("cascade_tiles_per_sec", cascade_serving.tiles_per_sec, 1,
             bench::kHigher);
  report.add("full_tiles_per_sec", full_tps, 1, bench::kHigher);
  report.add("speedup", speedup, 4, bench::kHigher);
  report.add("full_scan_ap", result.full_ap, 4, bench::higher_within(0.02));
  report.add("cascade_ap", result.cascade_ap, 4, bench::higher_within(0.02));
  report.add("ap_delta_points", ap_delta_points, 4, bench::lower_within(1.0));
  report.write(flags.get_string("json"));
  return speedup_ok && accuracy_ok && negative_ok ? 0 : 1;
}
