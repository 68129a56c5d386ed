// Datacenter-scale serving bench: pipeline-parallel sharded fleet vs
// whole-model replicas, equal device count, on a model too large for one
// device's memory budget.
//
// Claim under test (ISSUE 10): when the model does not fit a single
// device (weights + activation workspace exceed DRAM), a whole-model
// replica must stream the non-resident weights over PCIe on every run
// (ios weight paging) — a per-batch tax that dwarfs compute. Partitioning
// the model into K memory-feasible stages (shard::partition_graph) and
// serving it as pipeline groups of K devices each (shard::PipelineGroup)
// removes the paging tax at the price of pipeline fill/drain bubbles and
// cut-activation transfers. The bench serves the same seeded diurnal
// trace (~1M requests by default) through both fleets — N whole-model
// replicas with paging enabled vs N/K pipeline groups — and gates on
// accepted-request throughput ratio >= 1.5x at equal-or-better SLO
// attainment. Results export to BENCH_pipeline.json for the CI gate.
#include <cstdio>
#include <memory>
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
#include "report.hpp"
#include "serve/server.hpp"
#include "shard/partition.hpp"
#include "shard/pipeline.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"

namespace {

dcn::detect::SppNetConfig pick_model(std::int64_t candidate) {
  if (candidate < 0 || candidate > 3) {
    throw dcn::ConfigError("--candidate must be 0..3, got " +
                           std::to_string(candidate));
  }
  return dcn::detect::table1_models()[static_cast<std::size_t>(candidate)];
}

/// The residency a whole-model session needs: full-precision weights plus
/// the ping-pong activation workspace (InferenceSession::initialize).
std::int64_t whole_model_resident_bytes(const dcn::graph::Graph& g) {
  std::int64_t max_activation = 0;
  for (const auto& node : g.nodes()) {
    max_activation = std::max(max_activation, node.output.numel() * 4);
  }
  return static_cast<std::int64_t>(dcn::simgpu::total_weight_bytes(g)) +
         2 * max_activation * 64;
}

struct FleetResult {
  dcn::serve::ServingReport report;
  double bubble_fraction = 0.0;  // pipeline fleet only
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_pipeline_serving",
                 "pipeline-parallel sharded fleet vs paging whole-model "
                 "replicas at equal device count");
  flags.add_int("candidate", 2, "SPP-Net variant (0=original, 1..3)");
  flags.add_int("input", 100, "input patch size");
  flags.add_int("devices", 192, "total simulated devices per fleet");
  flags.add_int("pipeline-stages", 4, "stages K per pipeline group");
  flags.add_int("microbatch", 4, "samples per pipeline microbatch");
  flags.add_int("pipe-queue", 2, "inter-stage queue depth (backpressure)");
  flags.add_double("mem-frac", 0.74,
                   "device DRAM as a fraction of the whole model's "
                   "residency (< 1 forces replica weight paging)");
  flags.add_int("max-batch", 8, "dynamic batcher size bound");
  flags.add_double("timeout-ms", 2.0, "batching timeout, milliseconds");
  flags.add_int("queue", 64, "admission queue capacity");
  flags.add_double("requests", 1.0e6, "target trace size (sets duration)");
  flags.add_double("rate", 0.0,
                   "offered load, req/s (0 = --load x paged-replica fleet "
                   "capacity)");
  flags.add_double("load", 2.0, "auto-rate multiple of replica capacity");
  flags.add_double("deadline-ms", 25.0, "per-request SLO (0 disables)");
  flags.add_double("burst", 1.4, "traffic burst factor");
  flags.add_double("diurnal", 0.35, "diurnal modulation amplitude");
  flags.add_int("seed", 1, "traffic seed");
  flags.add_string("json", "BENCH_pipeline.json", "JSON export path");
  if (!flags.parse(argc, argv)) return 0;

  const detect::SppNetConfig model = pick_model(flags.get_int("candidate"));
  const graph::Graph g = graph::optimize_graph(
      graph::build_inference_graph(model, flags.get_int("input")));

  const int devices = static_cast<int>(flags.get_int("devices"));
  const int stages = static_cast<int>(flags.get_int("pipeline-stages"));
  if (devices < 1 || stages < 1 || devices % stages != 0) {
    throw ConfigError("--devices must be a positive multiple of "
                      "--pipeline-stages for the equal-device comparison");
  }
  const int groups = devices / stages;
  const int max_batch = static_cast<int>(flags.get_int("max-batch"));
  const std::int64_t microbatch = flags.get_int("microbatch");

  // Shrink DRAM below the whole model's residency so a single device can
  // only serve it by paging weights, while each pipeline stage still fits.
  const std::int64_t whole_bytes = whole_model_resident_bytes(g);
  simgpu::DeviceSpec spec = simgpu::a5500_spec();
  spec.dram_bytes = static_cast<std::int64_t>(
      flags.get_double("mem-frac") * static_cast<double>(whole_bytes));

  ios::IosOptions batch_options;
  batch_options.batch = max_batch;
  const ios::Schedule batch_schedule =
      ios::optimize_schedule(g, spec, batch_options);

  // Stage schedules are optimized at the microbatch size the pipeline
  // executor actually runs, so the DP balances the costs that get paid.
  shard::PartitionOptions popts;
  popts.stages = stages;
  popts.ios.batch = microbatch;
  const shard::Partition partition = shard::partition_graph(g, spec, popts);

  ios::ResilientOptions resilient;
  resilient.retry.max_attempts = 4;
  resilient.retry.base_backoff = 1.0e-4;
  resilient.retry.max_backoff = 1.0e-2;

  shard::PipelineOptions pipe_options;
  pipe_options.microbatch = microbatch;
  pipe_options.queue_capacity = static_cast<int>(flags.get_int("pipe-queue"));
  pipe_options.resilient = resilient;

  // Probe both shapes once to anchor offered load: a paged replica's batch
  // time sets the replica fleet's capacity, so "--load 2" means the same
  // overload on every host.
  simgpu::Device probe(spec);
  ios::InferenceSession probe_session(g, batch_schedule, probe,
                                      simgpu::Precision::kFp32,
                                      /*allow_weight_paging=*/true);
  probe_session.initialize();
  const double replica_batch_seconds =
      probe_session.run(max_batch).latency_seconds;
  const std::int64_t paged_bytes = probe_session.paged_weight_bytes();
  shard::PipelineGroup probe_group(partition, spec, pipe_options);
  const double pipeline_batch_seconds =
      probe_group.serve_batch(0.0, max_batch).end;

  double rate = flags.get_double("rate");
  const double replica_capacity = static_cast<double>(devices) *
                                  static_cast<double>(max_batch) /
                                  replica_batch_seconds;
  if (rate <= 0.0) rate = flags.get_double("load") * replica_capacity;

  serve::TrafficConfig traffic;
  traffic.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  traffic.rate = rate;
  traffic.burst_factor = flags.get_double("burst");
  // Duration targets --requests actual arrivals: the burst pulse raises
  // the mean rate by (1 + factor x duty) over each burst period.
  traffic.duration =
      flags.get_double("requests") /
      (rate * (1.0 + traffic.burst_factor * traffic.burst_duty));
  traffic.diurnal_amplitude = flags.get_double("diurnal");
  traffic.diurnal_period = traffic.duration;
  traffic.deadline = flags.get_double("deadline-ms") * 1e-3;
  const auto trace = serve::generate_trace(traffic);
  const double offered =
      static_cast<double>(trace.size()) / traffic.duration;

  std::printf(
      "model %s (input %lld): residency %.1f MB, device DRAM %.1f MB\n"
      "replica pages %.1f MB/run -> batch-%d service %.3f ms\n"
      "pipeline %dx%d stages (microbatch %lld): batch-%d service %.3f ms, "
      "stage bottleneck %.3f ms\n"
      "serving %zu requests over %.1fs (%.0f req/s offered, base rate "
      "%.0f = %.2fx replica capacity)\n\n",
      model.name.c_str(), static_cast<long long>(flags.get_int("input")),
      static_cast<double>(whole_bytes) / 1e6,
      static_cast<double>(spec.dram_bytes) / 1e6,
      static_cast<double>(paged_bytes) / 1e6, max_batch,
      replica_batch_seconds * 1e3, groups, stages,
      static_cast<long long>(microbatch), max_batch,
      pipeline_batch_seconds * 1e3, partition.bottleneck_seconds * 1e3,
      trace.size(), traffic.duration, offered, rate,
      rate / replica_capacity);

  serve::ServerConfig base_config;
  base_config.batch.max_batch = max_batch;
  base_config.batch.timeout = flags.get_double("timeout-ms") * 1e-3;
  base_config.queue_capacity =
      static_cast<std::size_t>(flags.get_int("queue"));
  base_config.device = spec;
  base_config.resilient = resilient;

  // Fleet A: N whole-model replicas, each paying the paging tax.
  const auto run_replica_fleet = [&]() {
    serve::ServerConfig config = base_config;
    config.replicas = devices;
    config.resilient.allow_weight_paging = true;
    serve::Server server(g, batch_schedule, config);
    FleetResult result;
    result.report = server.serve(trace);
    return result;
  };

  // Fleet B: N/K pipeline groups over the same N devices, no paging.
  const auto run_pipeline_fleet = [&]() {
    serve::ServerConfig config = base_config;
    config.replicas = 0;
    std::vector<std::unique_ptr<serve::Backend>> backends;
    std::vector<shard::PipelineGroup*> raw;
    backends.reserve(static_cast<std::size_t>(groups));
    for (int i = 0; i < groups; ++i) {
      auto group = std::make_unique<shard::PipelineGroup>(partition, spec,
                                                          pipe_options);
      raw.push_back(group.get());
      backends.push_back(std::move(group));
    }
    serve::Server server(g, batch_schedule, config, nullptr,
                         std::move(backends));
    FleetResult result;
    result.report = server.serve(trace);
    double busy = 0.0;
    double bubble = 0.0;
    for (const shard::PipelineGroup* group : raw) {
      for (const shard::StageCounters& c : group->stage_counters()) {
        busy += c.busy_seconds;
        bubble += c.bubble_seconds;
      }
    }
    result.bubble_fraction =
        busy + bubble > 0.0 ? bubble / (busy + bubble) : 0.0;
    return result;
  };

  const FleetResult replica = run_replica_fleet();
  const FleetResult pipeline = run_pipeline_fleet();

  TextTable table({"Fleet", "Throughput", "p50", "p99", "SLO", "Rejected",
                   "Cost/req", "Bubbles"});
  const auto row = [&](const char* name, const FleetResult& fleet,
                       bool pipelined) {
    const serve::ServingReport& r = fleet.report;
    table.add_row({name, format_double(r.throughput, 0) + " req/s",
                   format_ms(r.p50 * 1e3), format_ms(r.p99 * 1e3),
                   format_percent(r.slo_attainment()),
                   format_percent(r.reject_rate()),
                   format_double(r.cost_per_request() * 1e3, 4) + " dev-ms",
                   pipelined ? format_percent(fleet.bubble_fraction) : "-"});
  };
  row("whole-model (paged)", replica, false);
  row("pipeline groups", pipeline, true);
  std::printf("%s\n", table.to_string().c_str());

  const double ratio = replica.report.throughput > 0.0
                           ? pipeline.report.throughput /
                                 replica.report.throughput
                           : 0.0;
  std::printf(
      "pipeline fleet: %.2fx accepted-request throughput at equal devices "
      "(target >= 1.5x), SLO %.1f%% vs %.1f%%\n",
      ratio, pipeline.report.slo_attainment() * 1e2,
      replica.report.slo_attainment() * 1e2);

  bench::Report report;
  report.add("model", model.name);
  report.add("input", flags.get_int("input"), 0);
  report.add("devices", devices, 0);
  report.add("stages", stages, 0);
  report.add("groups", groups, 0);
  report.add("microbatch", microbatch, 0);
  report.add("dram_mb", static_cast<double>(spec.dram_bytes) / 1e6, 2);
  report.add("model_resident_mb", static_cast<double>(whole_bytes) / 1e6, 2);
  report.add("paged_mb_per_run", static_cast<double>(paged_bytes) / 1e6, 2);
  report.add("offered_rate_rps", offered, 1);
  report.add("duration_s", traffic.duration, 2);
  report.add("requests", trace.size(), 0);
  const auto block = [&](const char* name, const FleetResult& fleet) {
    const serve::ServingReport& r = fleet.report;
    report.begin(name);
    report.add("throughput_rps", r.throughput, 3, bench::kHigher);
    report.add("p50_ms", r.p50 * 1e3, 4, bench::kLower);
    report.add("p99_ms", r.p99 * 1e3, 4, bench::kLower);
    report.add("slo_attainment", r.slo_attainment(), 4,
               bench::higher_within(0.02));
    report.add("reject_rate", r.reject_rate(), 4, bench::lower_within(0.02));
    report.add("completed", r.completed, 0);
    report.add("devices", r.devices, 0);
    report.add("cost_per_request_device_ms", r.cost_per_request() * 1e3, 5,
               bench::kLower);
    report.add("bubble_fraction", fleet.bubble_fraction, 4,
               bench::lower_within(0.02));
    report.end();
  };
  block("replica", replica);
  block("pipeline", pipeline);
  report.add("throughput_ratio", ratio, 3, bench::kHigher);
  report.add("bubble_fraction", pipeline.bubble_fraction, 4,
             bench::lower_within(0.02));
  report.write(flags.get_string("json"));

  // The acceptance gate: fail loudly so CI catches a regression even
  // before bench_compare diffs the JSON against the committed baseline.
  if (ratio < 1.5) {
    std::fprintf(stderr,
                 "FAIL: pipeline/replica throughput ratio %.2fx < 1.5x\n",
                 ratio);
    return 1;
  }
  if (pipeline.report.slo_attainment() + 1e-9 <
      replica.report.slo_attainment()) {
    std::fprintf(stderr,
                 "FAIL: pipeline SLO attainment %.4f below replica %.4f\n",
                 pipeline.report.slo_attainment(),
                 replica.report.slo_attainment());
    return 1;
  }
  return 0;
}
