// Tests for pipeline-parallel sharding: graph partitioning (DP balance,
// cut legality, degenerate stage counts), weight paging in the executor,
// the microbatch pipeline executor, and the serving determinism contract
// extended to pipeline groups.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "core/error.hpp"
#include "graph/graph.hpp"
#include "graph/passes.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "profiler/trace.hpp"
#include "serve/server.hpp"
#include "shard/partition.hpp"
#include "shard/pipeline.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::shard {
namespace {

// Conv/ReLU chain into an FC head — a deep-enough linear model that K-way
// cuts have real choices, with every conv followed by the ReLU the
// optimizer would fuse (the cut-legality case).
graph::Graph chain_graph(int conv_blocks = 4, std::int64_t channels = 16) {
  graph::Graph g;
  auto prev = g.add_op(graph::OpKind::kInput, "in", {}, {},
                       graph::TensorDesc{{channels, 16, 16}});
  for (int b = 0; b < conv_blocks; ++b) {
    graph::OpAttrs conv;
    conv.kernel = 3;
    conv.stride = 1;
    conv.padding = 1;
    conv.out_channels = channels;
    prev = g.add_op(graph::OpKind::kConv2d, "conv" + std::to_string(b), conv,
                    {prev}, graph::TensorDesc{{channels, 16, 16}});
    prev = g.add_op(graph::OpKind::kReLU, "relu" + std::to_string(b), {},
                    {prev}, graph::TensorDesc{{channels, 16, 16}});
  }
  prev = g.add_op(graph::OpKind::kFlatten, "flat", {}, {prev},
                  graph::TensorDesc{{channels * 16 * 16}});
  graph::OpAttrs fc;
  fc.out_features = 64;
  prev = g.add_op(graph::OpKind::kLinear, "fc", fc, {prev},
                  graph::TensorDesc{{64}});
  g.add_op(graph::OpKind::kOutput, "out", {}, {prev},
           graph::TensorDesc{{64}});
  return g;
}

// An FC tower whose weights dwarf its activations — the shape that blows a
// small DRAM budget and pages, while a K-way split fits per stage.
graph::Graph fat_fc_graph(int layers, std::int64_t width) {
  graph::Graph g;
  auto prev = g.add_op(graph::OpKind::kInput, "in", {}, {},
                       graph::TensorDesc{{width}});
  for (int l = 0; l < layers; ++l) {
    graph::OpAttrs fc;
    fc.out_features = width;
    prev = g.add_op(graph::OpKind::kLinear, "fc" + std::to_string(l), fc,
                    {prev}, graph::TensorDesc{{width}});
  }
  g.add_op(graph::OpKind::kOutput, "out", {}, {prev},
           graph::TensorDesc{{width}});
  return g;
}

// --- Partitioning ----------------------------------------------------------

TEST(Partition, SingleStageEqualsWholeModelScheduleCost) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  PartitionOptions options;
  options.stages = 1;
  options.ios.batch = 4;
  const auto whole = ios::optimize_schedule(g, spec, options.ios);
  const double whole_cost =
      ios::schedule_cost(g, spec, whole, options.ios.batch);

  const Partition partition = partition_graph(g, spec, options);
  ASSERT_EQ(partition.stages.size(), 1u);
  EXPECT_EQ(partition.stages[0].input_bytes, 0);
  EXPECT_EQ(partition.stages[0].output_bytes, 0);
  EXPECT_DOUBLE_EQ(partition.stages[0].transfer_seconds, 0.0);
  // K = 1 cuts nothing: the one stage's subgraph is the whole model, and
  // its IOS cost must match the unsharded schedule exactly.
  EXPECT_DOUBLE_EQ(partition.bottleneck_seconds, whole_cost);
  EXPECT_DOUBLE_EQ(partition.stages[0].compute_seconds, whole_cost);
}

TEST(Partition, RejectsOutOfRangeStageCounts) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  const int n = static_cast<int>(graph::device_op_count(g));
  PartitionOptions options;
  options.stages = 0;
  EXPECT_THROW(partition_graph(g, spec, options), ConfigError);
  options.stages = n + 1;
  EXPECT_THROW(partition_graph(g, spec, options), ConfigError);
  options.stages = n;  // one op per stage is the legal extreme...
  // ...except the fused-pair constraint forbids conv|relu cuts here.
  EXPECT_THROW(partition_graph(g, spec, options), ConfigError);
}

TEST(Partition, NeverCutsBetweenConvAndItsReLU) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  for (int k = 2; k <= 4; ++k) {
    PartitionOptions options;
    options.stages = k;
    const Partition partition = partition_graph(g, spec, options);
    ASSERT_EQ(partition.stages.size(), static_cast<std::size_t>(k));
    for (const StagePlan& stage : partition.stages) {
      const std::set<graph::OpId> ops(stage.ops.begin(), stage.ops.end());
      for (graph::OpId id : stage.ops) {
        const graph::OpNode& node = g.node(id);
        if (node.kind != graph::OpKind::kReLU) continue;
        const graph::OpKind pk = g.node(node.inputs[0]).kind;
        if (pk == graph::OpKind::kConv2d || pk == graph::OpKind::kLinear) {
          EXPECT_TRUE(ops.count(node.inputs[0]) != 0)
              << node.name << " split from its producer";
        }
      }
    }
  }
}

TEST(Partition, OptimizerFusesTheChainGraph) {
  // Every conv absorbs its ReLU and the FC reads the last conv directly.
  EXPECT_EQ(graph::optimize_graph(chain_graph()).to_string(),
            "#0 Input 'in' -> (16x16x16)\n"
            "#1 FusedConvReLU 'conv0' -> (16x16x16) inputs[0]\n"
            "#2 FusedConvReLU 'conv1' -> (16x16x16) inputs[1]\n"
            "#3 FusedConvReLU 'conv2' -> (16x16x16) inputs[2]\n"
            "#4 FusedConvReLU 'conv3' -> (16x16x16) inputs[3]\n"
            "#5 Linear 'fc' -> (64) inputs[4]\n"
            "#6 Output 'out' -> (64) inputs[5]\n");
}

TEST(Partition, FusedGraphPartitionsAndStagesCoverEveryOp) {
  // The optimizer's fused graph: fused nodes are atomic by construction,
  // so every stage count up to the (smaller) device-op total is legal.
  const auto fused = graph::optimize_graph(chain_graph());
  const auto spec = simgpu::a5500_spec();
  const int n = static_cast<int>(graph::device_op_count(fused));
  PartitionOptions options;
  options.stages = std::min(3, n);
  const Partition partition = partition_graph(fused, spec, options);
  int covered = 0;
  for (const StagePlan& stage : partition.stages) {
    covered += static_cast<int>(stage.ops.size());
    EXPECT_FALSE(stage.ops.empty());
    EXPECT_GT(stage.compute_seconds, 0.0);
  }
  EXPECT_EQ(covered, n);
  EXPECT_GE(partition.bottleneck_seconds,
            partition.total_compute_seconds /
                static_cast<double>(partition.stages.size()));
}

TEST(Partition, CutEdgesCarryTransferCostAndBalanceBeatsWorstStage) {
  const auto g = chain_graph(6);
  const auto spec = simgpu::a5500_spec();
  PartitionOptions options;
  options.stages = 3;
  const Partition partition = partition_graph(g, spec, options);
  // Interior stages read a cut activation and write one.
  EXPECT_EQ(partition.stages.front().input_bytes, 0);
  EXPECT_GT(partition.stages.front().output_bytes, 0);
  EXPECT_GT(partition.stages[1].input_bytes, 0);
  EXPECT_GT(partition.stages[1].transfer_seconds, 0.0);
  EXPECT_EQ(partition.stages.back().output_bytes, 0);
  // The DP's bottleneck is no worse than the trivial "everything in one
  // stage" split cost spread over any single stage.
  double worst_single = 0.0;
  for (const StagePlan& stage : partition.stages) {
    worst_single = std::max(
        worst_single, stage.compute_seconds + stage.transfer_seconds);
  }
  EXPECT_DOUBLE_EQ(partition.bottleneck_seconds, worst_single);
}

TEST(Partition, MemoryBudgetMakesSingleStageInfeasible) {
  const auto g = fat_fc_graph(4, 512);
  const auto spec = simgpu::a5500_spec();
  PartitionOptions options;
  options.ios.batch = 1;
  // Budget below the whole model but above a quarter of it: K = 1 must
  // throw, K = 4 must fit.
  const auto whole_bytes =
      static_cast<std::int64_t>(simgpu::total_weight_bytes(g));
  options.max_stage_bytes = whole_bytes / 2;
  options.stages = 1;
  EXPECT_THROW(partition_graph(g, spec, options), ConfigError);
  options.stages = 4;
  const Partition partition = partition_graph(g, spec, options);
  for (const StagePlan& stage : partition.stages) {
    EXPECT_LE(stage.resident_bytes, options.max_stage_bytes);
  }
}

// --- Weight paging (the honest replica-only baseline) ----------------------

TEST(WeightPaging, OversizedModelThrowsWithoutPagingAndPaysPcieWithIt) {
  const auto g = fat_fc_graph(4, 512);
  auto spec = simgpu::a5500_spec();
  // Shrink DRAM so the model + workspace cannot be resident.
  spec.dram_bytes =
      static_cast<std::int64_t>(simgpu::total_weight_bytes(g)) / 2;
  const auto schedule = ios::optimize_schedule(g, spec);

  simgpu::Device strict(spec);
  ios::InferenceSession no_paging(g, schedule, strict);
  EXPECT_THROW(no_paging.initialize(), OutOfMemoryError);

  simgpu::Device paged_dev(spec);
  ios::InferenceSession paged(g, schedule, paged_dev,
                              simgpu::Precision::kFp32,
                              /*allow_weight_paging=*/true);
  paged.initialize();
  EXPECT_GT(paged.paged_weight_bytes(), 0);

  // A big enough device keeps everything resident and pages nothing.
  simgpu::Device roomy_dev(simgpu::a5500_spec());
  ios::InferenceSession resident(g, schedule, roomy_dev);
  resident.initialize();
  EXPECT_EQ(resident.paged_weight_bytes(), 0);

  // The per-run PCIe tax: the paged session streams its overflow weights
  // on every inference, so it is strictly slower than the resident one.
  const double paged_latency = paged.run(1).latency_seconds;
  const double resident_latency = resident.run(1).latency_seconds;
  EXPECT_GT(paged_latency,
            resident_latency +
                static_cast<double>(paged.paged_weight_bytes()) /
                    spec.pcie_bandwidth * 0.9);
}

// --- Pipeline execution ----------------------------------------------------

PipelineOptions pipeline_options(std::int64_t microbatch = 4) {
  PipelineOptions options;
  options.microbatch = microbatch;
  options.queue_capacity = 2;
  return options;
}

TEST(Pipeline, ValidatesConstructionAndBatch) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  PartitionOptions popts;
  popts.stages = 2;
  const Partition partition = partition_graph(g, spec, popts);

  PipelineOptions bad = pipeline_options();
  bad.microbatch = 0;
  EXPECT_THROW(PipelineGroup(partition, spec, bad), ConfigError);
  bad = pipeline_options();
  bad.queue_capacity = 0;
  EXPECT_THROW(PipelineGroup(partition, spec, bad), ConfigError);

  PipelineGroup group(partition, spec, pipeline_options());
  EXPECT_EQ(group.device_count(), 2);
  EXPECT_THROW(group.serve_batch(0.0, 0), ConfigError);
}

TEST(Pipeline, MicrobatchingOverlapsStages) {
  const auto g = chain_graph(6);
  const auto spec = simgpu::a5500_spec();
  PartitionOptions popts;
  popts.stages = 3;
  popts.ios.batch = 4;
  const Partition partition = partition_graph(g, spec, popts);

  // One big batch, many microbatches: the pipelined makespan must beat
  // running the same microbatches with no overlap (sum of all stage busy
  // time), and must be at least the critical path (serial time of one
  // microbatch + steady-state drain of the rest).
  PipelineGroup group(partition, spec, pipeline_options(4));
  const auto out = group.serve_batch(0.0, 32);
  ASSERT_TRUE(out.ok);
  double total_busy = 0.0;
  for (const StageCounters& c : group.stage_counters()) {
    EXPECT_GT(c.busy_seconds, 0.0);
    EXPECT_EQ(c.microbatches, 8);
    total_busy += c.busy_seconds;
  }
  EXPECT_LT(out.end, total_busy);  // genuine overlap
  EXPECT_GT(out.end, total_busy / 3.0);
  EXPECT_GT(group.bubble_fraction(), 0.0);  // fill/drain exists
  EXPECT_LT(group.bubble_fraction(), 1.0);
}

TEST(Pipeline, DeterministicAndIndependentOfPriorBatches) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  PartitionOptions popts;
  popts.stages = 2;
  const Partition partition = partition_graph(g, spec, popts);

  PipelineGroup a(partition, spec, pipeline_options());
  PipelineGroup b(partition, spec, pipeline_options());
  const auto first = a.serve_batch(1.0e-3, 8);
  const auto second = a.serve_batch(first.end + 1.0e-3, 8);
  // Same dispatch on a fresh group: identical service time, regardless of
  // the first group's history.
  const auto fresh = b.serve_batch(first.end + 1.0e-3, 8);
  EXPECT_DOUBLE_EQ(second.end, fresh.end);
  // The service duration is independent of the dispatch instant up to
  // floating-point rounding at the shifted clock magnitude.
  EXPECT_NEAR(second.end - (first.end + 1.0e-3), first.end - 1.0e-3,
              1.0e-12);
}

TEST(Pipeline, RecordsLaneSpansIntoChromeTrace) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  PartitionOptions popts;
  popts.stages = 2;
  const Partition partition = partition_graph(g, spec, popts);

  profiler::Recorder recorder;
  PipelineOptions options = pipeline_options();
  options.lane_prefix = "pipe0";
  PipelineGroup group(partition, spec, options, &recorder);
  recorder.clear();  // drop initialization spans; keep the serving window
  ASSERT_TRUE(group.serve_batch(0.0, 8).ok);
  ASSERT_FALSE(recorder.lane_spans().empty());
  std::set<std::string> lanes;
  for (const auto& span : recorder.lane_spans()) lanes.insert(span.lane);
  EXPECT_EQ(lanes.size(), 2u);
  EXPECT_TRUE(lanes.count("pipe0/stage0") == 1);
  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("pipe0/stage1"), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
}

// --- Pipeline groups in the serving fleet ----------------------------------

serve::ServerConfig light_config() {
  serve::ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.resilient.retry.max_attempts = 6;
  config.resilient.retry.base_backoff = 1.0e-4;
  config.resilient.retry.max_backoff = 5.0e-4;
  config.resilient.retry.jitter = 0.5;
  return config;
}

std::vector<std::unique_ptr<serve::Backend>> make_groups(
    const Partition& partition, const simgpu::DeviceSpec& spec, int count,
    const ios::ResilientOptions& resilient) {
  std::vector<std::unique_ptr<serve::Backend>> groups;
  for (int i = 0; i < count; ++i) {
    PipelineOptions options = pipeline_options();
    options.resilient = resilient;
    groups.push_back(
        std::make_unique<PipelineGroup>(partition, spec, options));
  }
  return groups;
}

TEST(PipelineServing, CompletionCsvInvariantAcrossGroupCounts) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  const auto schedule = ios::optimize_schedule(g, spec);
  PartitionOptions popts;
  popts.stages = 2;
  popts.ios.batch = 4;
  const Partition partition = partition_graph(g, spec, popts);

  serve::ServerConfig config = light_config();
  config.replicas = 0;
  // Transient faults exercise the per-stage salt mixing: recovery timing
  // must still be a pure function of the batch index.
  config.faults.seed = 77;
  config.faults.fail_with_probability(simgpu::FaultKind::kLaunchFailure,
                                      0.05, -1);

  serve::TrafficConfig traffic;
  traffic.seed = 11;
  traffic.duration = 4.0;
  traffic.rate = 40.0;  // light load: no batch ever waits on a busy group
  traffic.deadline = 0.25;
  const auto trace = serve::generate_trace(traffic);
  ASSERT_GT(trace.size(), 20u);

  const auto run = [&](int group_count) {
    serve::Server server(g, schedule, config, nullptr,
                         make_groups(partition, spec, group_count,
                                     config.resilient));
    server.serve(trace);
    return serve::Server::log_to_csv(server.log());
  };
  const std::string one = run(1);
  const std::string again = run(1);
  const std::string three = run(3);
  EXPECT_EQ(one, again);   // run-to-run determinism
  EXPECT_EQ(one, three);   // group-count invariance
  EXPECT_NE(one.find("id,status,arrival_ns"), std::string::npos);
}

TEST(PipelineServing, MixedFleetServesAndCountsDevices) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  const auto schedule = ios::optimize_schedule(g, spec);
  PartitionOptions popts;
  popts.stages = 2;
  const Partition partition = partition_graph(g, spec, popts);

  serve::ServerConfig config = light_config();
  config.replicas = 2;
  serve::TrafficConfig traffic;
  traffic.duration = 2.0;
  traffic.rate = 100.0;
  serve::Server server(g, schedule, config, nullptr,
                       make_groups(partition, spec, 1, config.resilient));
  const auto report = server.serve(serve::generate_trace(traffic));
  EXPECT_EQ(report.replicas, 3);
  EXPECT_EQ(report.devices, 4);  // 2 whole-model + one 2-stage group
  EXPECT_GT(report.completed, 0);
  // Device-seconds charge each dispatch's reservation window times its
  // backend's device count: more than replica-busy-seconds alone would be
  // for the whole-model entries, but the group's K-device charge stops at
  // stage-0 drain, so the two totals differ rather than strictly order.
  EXPECT_GT(report.device_seconds, 0.0);
  EXPECT_NE(report.device_seconds, report.busy_seconds);
  EXPECT_GT(report.cost_per_request(), 0.0);
  EXPECT_NE(report.to_string().find("cost per request"), std::string::npos);
}

TEST(PipelineServing, GroupDeathDegradesOneGroupNotTheFleet) {
  const auto g = chain_graph();
  const auto spec = simgpu::a5500_spec();
  const auto schedule = ios::optimize_schedule(g, spec);
  PartitionOptions popts;
  popts.stages = 2;
  const Partition partition = partition_graph(g, spec, popts);

  serve::ServerConfig config = light_config();
  config.replicas = 0;
  config.fleet.health.failure_detection = 5.0e-3;
  config.fleet.chaos.seed = 5;
  // One transient crash mid-run: some group goes down, restarts, rejoins.
  serve::CrashStorm storm;
  storm.time = 1.0;
  storm.kills = 1;
  storm.permanent = false;
  config.fleet.chaos.storms.push_back(storm);

  serve::TrafficConfig traffic;
  traffic.duration = 4.0;
  traffic.rate = 100.0;
  traffic.deadline = 0.5;
  serve::Server server(g, schedule, config, nullptr,
                       make_groups(partition, spec, 3, config.resilient));
  const auto report = server.serve(serve::generate_trace(traffic));
  EXPECT_GE(report.deaths, 1);
  // The other groups absorb the load: the fleet keeps completing, and any
  // batch caught in the crash is re-dispatched, not lost.
  EXPECT_GT(report.completed, 0);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GE(report.completed + report.deadline_expired + report.rejected,
            report.offered - 5);
}

}  // namespace
}  // namespace dcn::shard
