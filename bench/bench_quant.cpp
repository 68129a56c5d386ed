// Quantization benchmark: INT8 vs FP32 deployment of the selected SPP-Net.
//
// Claim under test (the paper's efficiency argument, extended to
// post-training quantization): INT8 inference of the accuracy-selected
// SPP-Net is at least 1.5x faster than FP32 on the simulated A5500 while
// the quantized detector gives up at most 1.0 AP point. Latency comes from
// the virtual-clock cost model (machine-independent); accuracy comes from
// really training the float model on the synthetic drainage dataset,
// quantizing it on a seeded calibration split, and re-scoring AP — so the
// JSON is byte-stable across hosts and usable as a CI regression baseline.
// Exits non-zero when either acceptance target is missed.
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "detect/calibration.hpp"
#include "detect/quantized_sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "graph/builder.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "report.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"
#include "simgpu/spec.hpp"

namespace {

dcn::detect::SppNetConfig pick_model(std::int64_t candidate) {
  if (candidate < 0 || candidate > 3) {
    throw dcn::ConfigError("--candidate must be 0..3, got " +
                           std::to_string(candidate));
  }
  return dcn::detect::table1_models()[static_cast<std::size_t>(candidate)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_quant",
                 "INT8 vs FP32 latency and accuracy of the selected SPP-Net");
  flags.add_int("candidate", 2, "SPP-Net variant (0=original, 1..3)");
  flags.add_int("input", 100, "inference patch size for latency timing");
  flags.add_int("batch", 1, "latency batch size");
  flags.add_int("patch", 40, "training patch size for the accuracy check");
  flags.add_int("terrain", 384, "synthetic world edge length");
  flags.add_int("epochs", 12, "float-model training epochs");
  flags.add_int("calibration", 8, "calibration images");
  flags.add_int("seed", 2023, "data + weight seed");
  flags.add_double("speedup-floor", 1.5, "required int8 latency speedup");
  flags.add_double("ap-budget", 1.0, "allowed AP drop, points");
  flags.add_string("json", "BENCH_quant.json", "JSON export path");
  if (!flags.parse(argc, argv)) return 0;

  set_log_level(LogLevel::kWarn);
  const auto spec = simgpu::a5500_spec();
  const detect::SppNetConfig model_config =
      pick_model(flags.get_int("candidate"));
  const std::int64_t batch = flags.get_int("batch");

  // --- Latency: same IOS-optimized schedule, fp32 vs int8 kernels ----------
  const graph::Graph g =
      graph::build_inference_graph(model_config, flags.get_int("input"));
  ios::IosOptions options;
  options.batch = batch;
  const ios::Schedule fp32_schedule = ios::optimize_schedule(g, spec, options);
  ios::IosOptions int8_options = options;
  int8_options.precision = simgpu::Precision::kInt8;
  const ios::Schedule int8_schedule =
      ios::optimize_schedule(g, spec, int8_options);

  simgpu::Device fp32_device(spec);
  simgpu::Device int8_device(spec);
  const double fp32_latency =
      ios::measure_latency(g, fp32_schedule, fp32_device, batch);
  const double int8_latency =
      ios::measure_latency(g, int8_schedule, int8_device, batch, 1, 3,
                           simgpu::Precision::kInt8);
  const double speedup =
      int8_latency > 0.0 ? fp32_latency / int8_latency : 0.0;

  // --- Accuracy: train float, quantize post-training, re-score AP ----------
  geo::DatasetConfig data_config;
  data_config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  data_config.patch_size = flags.get_int("patch");
  data_config.terrain.rows = data_config.terrain.cols =
      static_cast<int>(flags.get_int("terrain"));
  const auto dataset = geo::DrainageDataset::synthesize(data_config);
  const geo::Split split = dataset.split(0.8, 3);

  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")) + 7);
  detect::SppNet model(model_config, rng);
  detect::TrainConfig train_config;
  train_config.epochs = static_cast<int>(flags.get_int("epochs"));
  train_config.verbose = false;
  (void)detect::train_detector(model, dataset, split, train_config);
  const double fp32_ap =
      detect::evaluate_detector(model, dataset, split.test)
          .average_precision;

  std::vector<std::size_t> picks;
  for (const std::int64_t i : detect::calibration_split(
           static_cast<std::int64_t>(split.train.size()),
           flags.get_int("calibration"),
           static_cast<std::uint64_t>(flags.get_int("seed")))) {
    picks.push_back(split.train[static_cast<std::size_t>(i)]);
  }
  detect::QuantizedSppNet quantized(model, dataset.make_batch(picks).images);
  const double int8_ap =
      detect::evaluate_detector(quantized, dataset, split.test)
          .average_precision;
  const double ap_drop_points = (fp32_ap - int8_ap) * 100.0;

  // --- Report ---------------------------------------------------------------
  TextTable table({"Precision", "Latency", "Throughput", "AP"});
  table.add_row({"fp32", format_ms(fp32_latency * 1e3),
                 format_double(static_cast<double>(batch) / fp32_latency, 0) +
                     " img/s",
                 format_percent(fp32_ap)});
  table.add_row({"int8", format_ms(int8_latency * 1e3),
                 format_double(static_cast<double>(batch) / int8_latency, 0) +
                     " img/s",
                 format_percent(int8_ap)});
  std::printf("%s (%s, input %lld, batch %lld)\n\n%s\n",
              model_config.name.c_str(), spec.name.c_str(),
              static_cast<long long>(flags.get_int("input")),
              static_cast<long long>(batch), table.to_string().c_str());

  const double speedup_floor = flags.get_double("speedup-floor");
  const double ap_budget = flags.get_double("ap-budget");
  const bool speedup_ok = speedup >= speedup_floor;
  const bool accuracy_ok = ap_drop_points <= ap_budget;
  std::printf("int8 speedup: %.2fx (target >= %.2fx) %s\n", speedup,
              speedup_floor, speedup_ok ? "OK" : "FAIL");
  std::printf("AP drop: %.2f points (budget %.2f) %s\n", ap_drop_points,
              ap_budget, accuracy_ok ? "OK" : "FAIL");

  bench::Report report;
  report.add("model", model_config.name);
  report.add("input", flags.get_int("input"), 0);
  report.add("batch", batch, 0);
  report.add("fp32_latency_ms", fp32_latency * 1e3, 6, bench::kLower);
  report.add("int8_latency_ms", int8_latency * 1e3, 6, bench::kLower);
  report.add("speedup", speedup, 4, bench::kHigher);
  report.add("fp32_ap", fp32_ap, 4, bench::higher_within(0.02));
  report.add("int8_ap", int8_ap, 4, bench::higher_within(0.02));
  report.add("ap_drop_points", ap_drop_points, 4, bench::lower_within(2.0));
  report.write(flags.get_string("json"));
  return speedup_ok && accuracy_ok ? 0 : 1;
}
