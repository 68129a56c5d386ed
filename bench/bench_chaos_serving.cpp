// Chaos-schedule acceptance benchmark for the self-healing serve fleet.
//
// Claim under test (DESIGN.md "Fleet failure model & self-healing"): with
// health-checked replicas, crash re-dispatch, hedged requests, and
// INT8-degraded load shedding, the fleet rides out a seeded chaos schedule
// — a permanent crash storm plus a straggler wave under doubled load —
// with zero accepted-request loss, bounded recovery time, and SLO
// attainment within a few points of the fault-free run.
//
// The same trace is served twice: once fault-free (the availability
// baseline) and once under the chaos schedule. Both runs are pure
// functions of (config, seed), so the exported goodput / availability /
// recovery numbers are byte-stable and CI gates them against
// bench/baselines/BENCH_chaos.json via tools/bench_compare.py.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

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
#include "simgpu/kernels.hpp"

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

/// Fraction of admitted requests that were not lost (kFailed). 1.0 is the
/// acceptance target: crashes may expire deadlines, but an accepted request
/// must never vanish while any replica survives.
double availability(const dcn::serve::ServingReport& report) {
  if (report.admitted == 0) return 1.0;
  return static_cast<double>(report.admitted - report.failed) /
         static_cast<double>(report.admitted);
}

void json_block(std::ofstream& os, const char* name,
                const dcn::serve::ServingReport& report, bool fleet) {
  char buffer[768];
  std::snprintf(buffer, sizeof(buffer),
                "  \"%s\": {\n"
                "    \"goodput_rps\": %.3f,\n"
                "    \"throughput_rps\": %.3f,\n"
                "    \"slo_attainment\": %.4f,\n"
                "    \"availability\": %.4f,\n"
                "    \"reject_rate\": %.4f,\n"
                "    \"p99_ms\": %.4f,\n"
                "    \"completed\": %lld,\n"
                "    \"failed\": %lld",
                name, report.goodput(), report.throughput,
                report.slo_attainment(), availability(report),
                report.reject_rate(), report.p99 * 1e3,
                static_cast<long long>(report.completed),
                static_cast<long long>(report.failed));
  os << buffer;
  if (fleet) {
    std::snprintf(buffer, sizeof(buffer),
                  ",\n"
                  "    \"recovery_s\": %.4f,\n"
                  "    \"deaths\": %lld,\n"
                  "    \"respawns\": %lld,\n"
                  "    \"replicas_lost\": %d,\n"
                  "    \"crash_redispatches\": %lld,\n"
                  "    \"hedges_won\": %lld,\n"
                  "    \"degraded_served\": %lld",
                  report.time_to_recovery,
                  static_cast<long long>(report.deaths),
                  static_cast<long long>(report.respawns),
                  report.replicas_lost,
                  static_cast<long long>(report.crash_redispatches),
                  static_cast<long long>(report.hedges_won),
                  static_cast<long long>(report.degraded_served));
    os << buffer;
  }
  os << "\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_chaos_serving",
                 "self-healing fleet vs a seeded chaos schedule");
  flags.add_int("candidate", 2, "SPP-Net variant (0=original, 1..3)");
  flags.add_int("input", 100, "input patch size");
  flags.add_double("duration", 8.0, "trace length, virtual seconds");
  flags.add_double("rate", 0.0,
                   "offered load, req/s (0 = --load x single-replica "
                   "capacity)");
  flags.add_double("load", 2.0, "auto-rate multiple of one replica's "
                   "capacity");
  flags.add_int("max-batch", 8, "dynamic batcher size bound");
  flags.add_double("timeout-ms", 2.0, "batching timeout, milliseconds");
  flags.add_int("queue", 64, "admission queue capacity");
  flags.add_int("replicas", 8, "fleet size");
  flags.add_int("int8-replicas", 2,
                "replicas at the tail of the fleet serving INT8 (the "
                "degraded shed pool; 0 = uniform fp32)");
  flags.add_double("deadline-ms", 100.0, "per-request SLO");
  flags.add_double("burst", 1.0, "burst factor (1 = doubled load in-burst)");
  flags.add_double("burst-period", 4.0, "burst period, seconds");
  flags.add_double("burst-duty", 0.5, "in-burst fraction of each period");
  flags.add_string("chaos",
                   "crash:at=2,kills=2;straggle:at=4,dur=2,count=2,factor=8",
                   "chaos schedule spec (see serve/chaos.hpp)");
  flags.add_int("chaos-seed", 1234, "chaos victim-draw seed");
  flags.add_int("hedge", 1, "race hedges against stragglers (0 disables)");
  flags.add_int("shed", 1,
                "degrade to the INT8 pool under queue pressure (0 "
                "disables)");
  flags.add_int("seed", 42, "traffic seed");
  flags.add_string("json", "BENCH_chaos.json", "JSON export path");
  if (!flags.parse(argc, argv)) return 0;

  const auto spec = simgpu::a5500_spec();
  const detect::SppNetConfig model = pick_model(flags.get_int("candidate"));
  const graph::Graph g = graph::optimize_graph(
      graph::build_inference_graph(model, flags.get_int("input")));
  const int max_batch = static_cast<int>(flags.get_int("max-batch"));
  const int replicas = static_cast<int>(flags.get_int("replicas"));
  const int int8_replicas = static_cast<int>(flags.get_int("int8-replicas"));
  if (int8_replicas < 0 || int8_replicas > replicas)
    throw ConfigError("--int8-replicas must be in [0, --replicas]");

  ios::IosOptions options;
  options.batch = max_batch;
  const ios::Schedule schedule = ios::optimize_schedule(g, spec, options);

  // Anchor offered load to one replica's serial capacity, so "--load 2" on
  // an 8-replica fleet is a comfortably served stream whose burst windows
  // still bite once chaos halves the fleet.
  simgpu::Device probe(spec);
  const double serial_latency = ios::measure_latency(g, schedule, probe, 1);
  double rate = flags.get_double("rate");
  if (rate <= 0.0) rate = flags.get_double("load") / serial_latency;

  serve::TrafficConfig traffic;
  traffic.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  traffic.duration = flags.get_double("duration");
  traffic.rate = rate;
  traffic.burst_factor = flags.get_double("burst");
  traffic.burst_period = flags.get_double("burst-period");
  traffic.burst_duty = flags.get_double("burst-duty");
  traffic.deadline = flags.get_double("deadline-ms") * 1e-3;
  const auto trace = serve::generate_trace(traffic);

  serve::ServerConfig config;
  config.batch.max_batch = max_batch;
  config.batch.timeout = flags.get_double("timeout-ms") * 1e-3;
  config.queue_capacity = static_cast<std::size_t>(flags.get_int("queue"));
  config.replicas = replicas;
  config.device = spec;
  if (int8_replicas > 0) {
    config.replica_precisions.assign(
        static_cast<std::size_t>(replicas), simgpu::Precision::kFp32);
    for (int r = replicas - int8_replicas; r < replicas; ++r)
      config.replica_precisions[static_cast<std::size_t>(r)] =
          simgpu::Precision::kInt8;
  }
  config.fleet.hedge.enabled = flags.get_int("hedge") != 0;
  config.fleet.hedge.factor = 2.0;
  config.fleet.shed.enabled =
      flags.get_int("shed") != 0 && int8_replicas > 0;
  config.fleet.shed.degrade_watermark = 0.5;
  config.fleet.shed.restore_watermark = 0.125;

  const std::string chaos_spec = flags.get_string("chaos");
  std::printf(
      "chaos acceptance: %zu requests over %.1fs (%.0f req/s offered, "
      "%s, %s)\n"
      "fleet: %d replicas (%d int8), hedge %s, shed %s\n"
      "schedule: %s (seed %lld)\n\n",
      trace.size(), traffic.duration, rate, model.name.c_str(),
      spec.name.c_str(), replicas, int8_replicas,
      config.fleet.hedge.enabled ? "on" : "off",
      config.fleet.shed.enabled ? "on" : "off", chaos_spec.c_str(),
      static_cast<long long>(flags.get_int("chaos-seed")));

  const auto run = [&](const serve::ChaosConfig& chaos) {
    serve::ServerConfig run_config = config;
    run_config.fleet.chaos = chaos;
    serve::Server server(g, schedule, run_config);
    return server.serve(trace);
  };

  const serve::ServingReport clean = run({});
  const serve::ServingReport chaos = run(serve::ChaosConfig::parse(
      chaos_spec, static_cast<std::uint64_t>(flags.get_int("chaos-seed"))));

  TextTable table({"Run", "Goodput", "SLO", "Avail", "p99", "Rejected",
                   "Failed", "Recovery"});
  const auto row = [&](const char* name,
                       const serve::ServingReport& report) {
    table.add_row({name, format_double(report.goodput(), 0) + " req/s",
                   format_percent(report.slo_attainment()),
                   format_percent(availability(report)),
                   format_ms(report.p99 * 1e3),
                   format_percent(report.reject_rate()),
                   std::to_string(report.failed),
                   report.time_to_recovery > 0.0
                       ? format_double(report.time_to_recovery, 2) + " s"
                       : "-"});
  };
  row("fault-free", clean);
  row("chaos", chaos);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("%s\n", chaos.to_string().c_str());

  const double slo_gap = clean.slo_attainment() - chaos.slo_attainment();
  std::printf(
      "accepted-request loss under chaos: %lld (target: 0)\n"
      "SLO gap vs fault-free: %.1f points (target: <= 10)\n",
      static_cast<long long>(chaos.failed), slo_gap * 100.0);

  std::ofstream json(flags.get_string("json"));
  json << "{\n";
  char header[384];
  std::snprintf(header, sizeof(header),
                "  \"model\": \"%s\",\n  \"offered_rate_rps\": %.1f,\n"
                "  \"duration_s\": %.1f,\n  \"replicas\": %d,\n"
                "  \"int8_replicas\": %d,\n  \"chaos_spec\": \"%s\",\n",
                model.name.c_str(), rate, traffic.duration, replicas,
                int8_replicas, chaos_spec.c_str());
  json << header;
  json_block(json, "clean", clean, false);
  json << ",\n";
  json_block(json, "chaos", chaos, true);
  char tail[96];
  std::snprintf(tail, sizeof(tail), ",\n  \"slo_gap_points\": %.2f\n}\n",
                slo_gap * 100.0);
  json << tail;
  std::printf("JSON written to %s\n", flags.get_string("json").c_str());
  return 0;
}
