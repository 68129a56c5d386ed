// Serving benchmark: dynamic batching vs serial (batch = 1) execution at
// equal offered load.
//
// Claim under test (the Clipper/Triton argument, applied to the paper's
// drainage-crossing detector): batching inference amortizes kernel-launch
// and stage overheads, so a dynamic batcher sustains a multiple of the
// serial throughput at the same offered request stream. Both servers see
// the byte-identical trace; the serial baseline is the same server with
// max_batch = 1. Results (throughput, p50/p95/p99 latency, reject rate)
// are printed and exported to BENCH_serving.json for CI trend tracking.
#include <cstdio>
#include <fstream>
#include <string>

#include "core/cli.hpp"
#include "core/error.hpp"
#include "core/table.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "serve/server.hpp"
#include "simgpu/device.hpp"
#include "simgpu/faults.hpp"

namespace {

dcn::detect::SppNetConfig pick_model(std::int64_t candidate) {
  switch (candidate) {
    case 0:
      return dcn::detect::original_sppnet();
    case 1:
      return dcn::detect::sppnet_candidate1();
    case 2:
      return dcn::detect::sppnet_candidate2();
    case 3:
      return dcn::detect::sppnet_candidate3();
    default:
      throw dcn::ConfigError("--candidate must be 0..3, got " +
                             std::to_string(candidate));
  }
}

void json_block(std::ofstream& os, const char* name,
                const dcn::serve::ServingReport& report) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "  \"%s\": {\n"
                "    \"throughput_rps\": %.3f,\n"
                "    \"p50_ms\": %.4f,\n"
                "    \"p95_ms\": %.4f,\n"
                "    \"p99_ms\": %.4f,\n"
                "    \"reject_rate\": %.4f,\n"
                "    \"slo_attainment\": %.4f,\n"
                "    \"completed\": %lld,\n"
                "    \"mean_batch_size\": %.3f\n"
                "  }",
                name, report.throughput, report.p50 * 1e3, report.p95 * 1e3,
                report.p99 * 1e3, report.reject_rate(),
                report.slo_attainment(),
                static_cast<long long>(report.completed),
                report.mean_batch_size);
  os << buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_serving",
                 "dynamic batching vs serial serving at equal offered load");
  flags.add_int("candidate", 2, "SPP-Net variant (0=original, 1..3)");
  flags.add_int("input", 100, "input patch size");
  flags.add_double("duration", 10.0, "trace length, virtual seconds");
  flags.add_double("rate", 0.0,
                   "offered load, req/s (0 = --load x serial capacity)");
  flags.add_double("load", 3.0, "auto-rate multiple of serial capacity");
  flags.add_int("max-batch", 8, "dynamic batcher size bound");
  flags.add_double("timeout-ms", 2.0, "batching timeout, milliseconds");
  flags.add_int("queue", 64, "admission queue capacity");
  flags.add_int("replicas", 1, "model replicas");
  flags.add_double("deadline-ms", 50.0, "per-request SLO (0 disables)");
  flags.add_double("burst", 1.0, "traffic burst factor");
  flags.add_double("diurnal", 0.3, "diurnal modulation amplitude");
  flags.add_string("faults", "", "fault plan spec (empty = fault-free)");
  flags.add_int("fault-seed", 7, "fault injector seed");
  flags.add_int("seed", 1, "traffic seed");
  flags.add_string("json", "BENCH_serving.json", "JSON export path");
  if (!flags.parse(argc, argv)) return 0;

  const auto spec = simgpu::a5500_spec();
  const detect::SppNetConfig model = pick_model(flags.get_int("candidate"));
  // Both servers serve the optimized (fused) graph; the batching
  // comparison itself is orthogonal to fusion.
  const graph::Graph g = graph::optimize_graph(
      graph::build_inference_graph(model, flags.get_int("input")));
  const int max_batch = static_cast<int>(flags.get_int("max-batch"));

  // Each configuration gets its best IOS schedule for its batch size, as
  // the paper re-optimizes per operating point.
  ios::IosOptions serial_options;
  serial_options.batch = 1;
  const ios::Schedule serial_schedule =
      ios::optimize_schedule(g, spec, serial_options);
  ios::IosOptions dynamic_options;
  dynamic_options.batch = max_batch;
  const ios::Schedule dynamic_schedule =
      ios::optimize_schedule(g, spec, dynamic_options);

  // Offered load, optionally anchored to the measured serial capacity so
  // "3x overload" means the same thing on every host.
  simgpu::Device probe(spec);
  const double serial_latency =
      ios::measure_latency(g, serial_schedule, probe, 1);
  double rate = flags.get_double("rate");
  if (rate <= 0.0) rate = flags.get_double("load") / serial_latency;

  serve::TrafficConfig traffic;
  traffic.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  traffic.duration = flags.get_double("duration");
  traffic.rate = rate;
  traffic.burst_factor = flags.get_double("burst");
  traffic.diurnal_amplitude = flags.get_double("diurnal");
  traffic.diurnal_period = traffic.duration;
  traffic.deadline = flags.get_double("deadline-ms") * 1e-3;
  const auto trace = serve::generate_trace(traffic);

  std::printf(
      "serving %zu requests over %.1fs (%.0f req/s offered, %s, %s)\n"
      "serial latency %.3f ms/inference -> capacity %.0f req/s\n\n",
      trace.size(), traffic.duration, rate, model.name.c_str(),
      spec.name.c_str(), serial_latency * 1e3, 1.0 / serial_latency);

  const auto run = [&](const ios::Schedule& schedule, int batch) {
    serve::ServerConfig config;
    config.batch.max_batch = batch;
    config.batch.timeout = flags.get_double("timeout-ms") * 1e-3;
    config.queue_capacity = static_cast<std::size_t>(flags.get_int("queue"));
    config.replicas = static_cast<int>(flags.get_int("replicas"));
    config.device = spec;
    config.resilient.retry.max_attempts = 4;
    config.resilient.retry.base_backoff = 1.0e-4;
    config.resilient.retry.max_backoff = 1.0e-2;
    if (!flags.get_string("faults").empty()) {
      config.faults = simgpu::FaultPlan::parse(
          flags.get_string("faults"),
          static_cast<std::uint64_t>(flags.get_int("fault-seed")));
    }
    serve::Server server(g, schedule, config);
    return server.serve(trace);
  };

  const serve::ServingReport serial = run(serial_schedule, 1);
  const serve::ServingReport dynamic = run(dynamic_schedule, max_batch);

  TextTable table({"Config", "Throughput", "p50", "p95", "p99", "Rejected",
                   "SLO", "Mean batch"});
  const auto row = [&](const char* name,
                       const serve::ServingReport& report) {
    table.add_row({name,
                   format_double(report.throughput, 0) + " req/s",
                   format_ms(report.p50 * 1e3), format_ms(report.p95 * 1e3),
                   format_ms(report.p99 * 1e3),
                   format_percent(report.reject_rate()),
                   format_percent(report.slo_attainment()),
                   format_double(report.mean_batch_size, 2)});
  };
  row("serial (batch=1)", serial);
  row("dynamic batching", dynamic);
  std::printf("%s\n", table.to_string().c_str());

  const double speedup =
      serial.throughput > 0.0 ? dynamic.throughput / serial.throughput : 0.0;
  std::printf("dynamic batching speedup: %.2fx throughput at equal offered "
              "load (target: >= 2x)\n",
              speedup);

  std::ofstream json(flags.get_string("json"));
  json << "{\n";
  char header[256];
  std::snprintf(header, sizeof(header),
                "  \"model\": \"%s\",\n  \"offered_rate_rps\": %.1f,\n"
                "  \"duration_s\": %.1f,\n  \"max_batch\": %d,\n"
                "  \"replicas\": %d,\n",
                model.name.c_str(), rate, traffic.duration, max_batch,
                static_cast<int>(flags.get_int("replicas")));
  json << header;
  json_block(json, "serial", serial);
  json << ",\n";
  json_block(json, "dynamic", dynamic);
  char tail[64];
  std::snprintf(tail, sizeof(tail), ",\n  \"speedup\": %.3f\n}\n", speedup);
  json << tail;
  std::printf("JSON written to %s\n", flags.get_string("json").c_str());
  return 0;
}
