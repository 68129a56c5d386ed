// Fusion benchmark: the graph optimizer vs the naive graph.
//
// Claim under test: the optimizer's sweep — conv+ReLU / linear+ReLU fusion
// and Flatten folding — over the SPP-Net inference graph removes at least
// 25% of the scheduled kernel launches and strictly lowers end-to-end
// latency at fp32 and int8, while the IOS scheduler consumes the fused
// graph directly. Numerical equivalence (bit-identical fused vs unfused
// outputs) is pinned by test_graph_passes; this bench measures the
// efficiency side and exports BENCH_fusion.json for the CI regression
// gate. Exits non-zero when the launch-reduction floor is missed.
#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "core/error.hpp"
#include "core/table.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "report.hpp"
#include "simgpu/device.hpp"
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
  CliFlags flags("bench_fusion",
                 "kernel launches and latency, fused vs naive graph");
  flags.add_int("candidate", 2, "SPP-Net variant (0=original, 1..3)");
  flags.add_int("input", 100, "input patch size");
  flags.add_int("batch", 1, "latency batch size");
  flags.add_double("reduction-floor", 0.25,
                   "required fraction of kernel launches eliminated");
  flags.add_string("json", "BENCH_fusion.json", "JSON export path");
  if (!flags.parse(argc, argv)) return 0;

  const auto spec = simgpu::a5500_spec();
  const detect::SppNetConfig model = pick_model(flags.get_int("candidate"));
  const std::int64_t batch = flags.get_int("batch");

  const graph::Graph naive =
      graph::build_inference_graph(model, flags.get_int("input"));
  const graph::Graph fused = graph::optimize_graph(naive);

  const auto naive_launches = graph::device_op_count(naive);
  const auto fused_launches = graph::device_op_count(fused);
  const double reduction =
      1.0 - static_cast<double>(fused_launches) /
                static_cast<double>(naive_launches);

  std::printf("%s, input %lld, batch %lld (%s)\n", model.name.c_str(),
              static_cast<long long>(flags.get_int("input")),
              static_cast<long long>(batch), spec.name.c_str());
  std::printf("optimizer: %zu -> %zu ops\n", naive.size(), fused.size());

  // End-to-end latency: each graph gets its own best IOS schedule at each
  // precision, exactly how the runner deploys them.
  const auto time_graph = [&](const graph::Graph& g,
                              simgpu::Precision precision) {
    ios::IosOptions options;
    options.batch = batch;
    options.precision = precision;
    const ios::Schedule schedule = ios::optimize_schedule(g, spec, options);
    simgpu::Device device(spec);
    return ios::measure_latency(g, schedule, device, batch, /*warmup=*/1,
                                /*repeats=*/3, precision);
  };
  const double naive_fp32 = time_graph(naive, simgpu::Precision::kFp32);
  const double fused_fp32 = time_graph(fused, simgpu::Precision::kFp32);
  const double naive_int8 = time_graph(naive, simgpu::Precision::kInt8);
  const double fused_int8 = time_graph(fused, simgpu::Precision::kInt8);

  TextTable table({"Graph", "Launches", "fp32 latency", "int8 latency"});
  table.add_row({"naive", std::to_string(naive_launches),
                 format_ms(naive_fp32 * 1e3), format_ms(naive_int8 * 1e3)});
  table.add_row({"fused", std::to_string(fused_launches),
                 format_ms(fused_fp32 * 1e3), format_ms(fused_int8 * 1e3)});
  std::printf("\n%s\n", table.to_string().c_str());

  const double floor = flags.get_double("reduction-floor");
  const bool reduction_ok = reduction >= floor;
  const double fp32_speedup = naive_fp32 / fused_fp32;
  const double int8_speedup = naive_int8 / fused_int8;
  std::printf("launch reduction: %.1f%% (target >= %.0f%%) %s\n",
              reduction * 100.0, floor * 100.0,
              reduction_ok ? "OK" : "FAIL");
  std::printf("latency speedup: %.3fx fp32, %.3fx int8\n", fp32_speedup,
              int8_speedup);

  bench::Report report;
  report.add("model", model.name);
  report.add("input", flags.get_int("input"), 0);
  report.add("batch", batch, 0);
  report.add("naive_launches", naive_launches, 0, bench::kLower);
  report.add("fused_launches", fused_launches, 0, bench::kLower);
  report.add("launch_reduction", reduction, 4, bench::kHigher);
  report.add("naive_fp32_latency_ms", naive_fp32 * 1e3, 6, bench::kLower);
  report.add("fused_fp32_latency_ms", fused_fp32 * 1e3, 6, bench::kLower);
  report.add("naive_int8_latency_ms", naive_int8 * 1e3, 6, bench::kLower);
  report.add("fused_int8_latency_ms", fused_int8 * 1e3, 6, bench::kLower);
  report.add("fp32_speedup", fp32_speedup, 4, bench::kHigher);
  report.add("int8_speedup", int8_speedup, 4, bench::kHigher);
  report.write(flags.get_string("json"));
  return reduction_ok ? 0 : 1;
}
