#include "shard/partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "core/error.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::shard {
namespace {

/// One PCIe copy of `bytes` at the partition batch size.
double copy_seconds(const simgpu::DeviceSpec& spec, std::int64_t bytes,
                    std::int64_t batch) {
  if (bytes <= 0) return 0.0;
  return spec.memcpy_latency +
         static_cast<double>(bytes) * static_cast<double>(batch) /
             spec.pcie_bandwidth;
}

/// Materialize the interval ops[lo..hi] (inclusive, indices into the
/// device-op topo order) as a standalone subgraph and price it.
StagePlan build_stage(const graph::Graph& graph,
                      const std::vector<graph::OpId>& topo, int lo, int hi,
                      const simgpu::DeviceSpec& spec,
                      const PartitionOptions& options) {
  StagePlan stage;
  std::unordered_set<graph::OpId> interior;
  for (int i = lo; i <= hi; ++i) {
    interior.insert(topo[static_cast<std::size_t>(i)]);
    stage.ops.push_back(topo[static_cast<std::size_t>(i)]);
  }

  // External producers map to one subgraph node each: original inputs stay
  // inputs, and a cut activation from an earlier stage becomes a kInput the
  // session's H2D copy prices as the PCIe staging it is.
  std::unordered_map<graph::OpId, graph::OpId> remap;
  const auto map_producer = [&](graph::OpId p) -> graph::OpId {
    const auto it = remap.find(p);
    if (it != remap.end()) return it->second;
    const graph::OpNode& node = graph.node(p);
    graph::OpId mapped = graph::kInvalidOp;
    if (node.kind == graph::OpKind::kInput) {
      mapped = stage.subgraph.add_op(graph::OpKind::kInput, node.name, {},
                                     {}, node.output);
    } else {
      stage.input_bytes += node.output.numel() * 4;
      mapped = stage.subgraph.add_op(graph::OpKind::kInput,
                                     "cut_in." + node.name, {}, {},
                                     node.output);
    }
    remap.emplace(p, mapped);
    return mapped;
  };

  for (int i = lo; i <= hi; ++i) {
    const graph::OpNode& node = graph.node(topo[static_cast<std::size_t>(i)]);
    std::vector<graph::OpId> inputs;
    inputs.reserve(node.inputs.size());
    for (graph::OpId p : node.inputs) inputs.push_back(map_producer(p));
    remap[node.id] = stage.subgraph.add_op(node.kind, node.name, node.attrs,
                                           std::move(inputs), node.output);
  }

  // One kOutput per interior op with any consumer outside the interval:
  // either the model's real output (the original kOutput node) or a cut
  // activation the next stage will read — the session's D2H copy prices
  // the producer side of that cut.
  for (int i = lo; i <= hi; ++i) {
    const graph::OpId id = topo[static_cast<std::size_t>(i)];
    const graph::OpNode& node = graph.node(id);
    bool model_output = false;
    bool cut_output = false;
    for (graph::OpId consumer : graph.successors(id)) {
      if (interior.count(consumer) != 0) continue;
      if (graph.node(consumer).kind == graph::OpKind::kOutput) {
        model_output = true;
      } else {
        cut_output = true;
      }
    }
    if (!model_output && !cut_output) continue;
    if (cut_output) stage.output_bytes += node.output.numel() * 4;
    stage.subgraph.add_op(graph::OpKind::kOutput,
                          (cut_output ? "cut_out." : "out.") + node.name, {},
                          {remap.at(id)}, node.output);
  }

  graph::validate_shapes(stage.subgraph);
  stage.schedule = ios::optimize_schedule(stage.subgraph, spec, options.ios);
  stage.compute_seconds =
      ios::schedule_cost(stage.subgraph, spec, stage.schedule,
                         options.ios.batch, options.ios.precision);
  stage.transfer_seconds =
      copy_seconds(spec, stage.input_bytes, options.ios.batch) +
      copy_seconds(spec, stage.output_bytes, options.ios.batch);

  // Same residency the session allocates: full-precision weights plus the
  // ping-pong activation workspace (InferenceSession::initialize).
  std::int64_t max_activation = 0;
  for (const graph::OpNode& node : stage.subgraph.nodes()) {
    max_activation = std::max(max_activation, node.output.numel() * 4);
  }
  stage.resident_bytes =
      static_cast<std::int64_t>(simgpu::total_weight_bytes(stage.subgraph)) +
      2 * max_activation * 64;
  return stage;
}

}  // namespace

Partition partition_graph(const graph::Graph& graph,
                          const simgpu::DeviceSpec& spec,
                          const PartitionOptions& options) {
  std::vector<graph::OpId> topo;
  for (graph::OpId id : graph.topological_order()) {
    if (graph::is_device_op(graph.node(id).kind)) topo.push_back(id);
  }
  const int n = static_cast<int>(topo.size());
  const int k = options.stages;
  if (k < 1 || k > n) {
    throw ConfigError("partition_graph: stages must be in [1, " +
                      std::to_string(n) + "] (device ops), got " +
                      std::to_string(k));
  }

  // Cut legality. legal_cut[i] == a stage boundary may fall between topo
  // position i and i+1. A conv/linear and a ReLU that directly consumes it
  // are the fusion pair: they must share a stage (a fused kind is already
  // one node, so this only ever constrains unfused graphs).
  std::vector<int> topo_pos(graph.size(), -1);
  for (int i = 0; i < n; ++i) {
    topo_pos[static_cast<std::size_t>(topo[static_cast<std::size_t>(i)])] = i;
  }
  std::vector<char> legal_cut(static_cast<std::size_t>(n), 1);
  for (graph::OpId id : topo) {
    const graph::OpNode& node = graph.node(id);
    if (node.kind != graph::OpKind::kReLU) continue;
    for (graph::OpId p : node.inputs) {
      const graph::OpKind pk = graph.node(p).kind;
      if (pk != graph::OpKind::kConv2d && pk != graph::OpKind::kLinear) {
        continue;
      }
      const int from = topo_pos[static_cast<std::size_t>(p)];
      const int to = topo_pos[static_cast<std::size_t>(id)];
      for (int c = from; c < to; ++c) {
        legal_cut[static_cast<std::size_t>(c)] = 0;
      }
    }
  }

  // Exact interval costing: every candidate stage is built and priced by
  // the same cost model the executor reproduces. O(n^2) IOS runs on
  // interval subgraphs — fine at model scale (tens of ops).
  const std::int64_t budget =
      options.max_stage_bytes > 0 ? options.max_stage_bytes : spec.dram_bytes;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> interval_cost(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), inf));
  for (int lo = 0; lo < n; ++lo) {
    for (int hi = lo; hi < n; ++hi) {
      const StagePlan stage =
          build_stage(graph, topo, lo, hi, spec, options);
      if (stage.resident_bytes > budget) continue;  // infeasible: stays inf
      interval_cost[static_cast<std::size_t>(lo)]
                   [static_cast<std::size_t>(hi)] =
          stage.compute_seconds + stage.transfer_seconds;
    }
  }

  // DP over cut positions: dp[s][j] = best achievable bottleneck covering
  // topo[0..j] with s+1 stages; min over the last stage's start i of
  // max(dp[s-1][i-1], cost(i..j)).
  std::vector<std::vector<double>> dp(
      static_cast<std::size_t>(k),
      std::vector<double>(static_cast<std::size_t>(n), inf));
  std::vector<std::vector<int>> cut_from(
      static_cast<std::size_t>(k),
      std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int j = 0; j < n; ++j) {
    dp[0][static_cast<std::size_t>(j)] =
        interval_cost[0][static_cast<std::size_t>(j)];
  }
  for (int s = 1; s < k; ++s) {
    for (int j = s; j < n; ++j) {
      for (int i = s; i <= j; ++i) {
        if (legal_cut[static_cast<std::size_t>(i - 1)] == 0) continue;
        const double prev = dp[static_cast<std::size_t>(s - 1)]
                              [static_cast<std::size_t>(i - 1)];
        const double here = interval_cost[static_cast<std::size_t>(i)]
                                         [static_cast<std::size_t>(j)];
        const double bottleneck = std::max(prev, here);
        if (bottleneck < dp[static_cast<std::size_t>(s)]
                           [static_cast<std::size_t>(j)]) {
          dp[static_cast<std::size_t>(s)][static_cast<std::size_t>(j)] =
              bottleneck;
          cut_from[static_cast<std::size_t>(s)]
                  [static_cast<std::size_t>(j)] = i;
        }
      }
    }
  }
  if (!std::isfinite(
          dp[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(
              n - 1)])) {
    throw ConfigError(
        "partition_graph: no legal memory-feasible " + std::to_string(k) +
        "-way split (per-stage budget " + std::to_string(budget) +
        " bytes over " + std::to_string(n) + " device ops)");
  }

  // Recover the chosen cut positions, then rebuild the chosen stages.
  std::vector<int> starts(static_cast<std::size_t>(k), 0);
  {
    int j = n - 1;
    for (int s = k - 1; s >= 1; --s) {
      const int i = cut_from[static_cast<std::size_t>(s)]
                            [static_cast<std::size_t>(j)];
      DCN_CHECK(i >= 1) << "partition DP lost its parent pointer";
      starts[static_cast<std::size_t>(s)] = i;
      j = i - 1;
    }
  }
  Partition partition;
  partition.stages.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    const int lo = starts[static_cast<std::size_t>(s)];
    const int hi = s + 1 < k ? starts[static_cast<std::size_t>(s + 1)] - 1
                             : n - 1;
    StagePlan stage = build_stage(graph, topo, lo, hi, spec, options);
    partition.bottleneck_seconds =
        std::max(partition.bottleneck_seconds,
                 stage.compute_seconds + stage.transfer_seconds);
    partition.total_compute_seconds += stage.compute_seconds;
    partition.total_transfer_seconds += stage.transfer_seconds;
    partition.stages.push_back(std::move(stage));
  }
  return partition;
}

}  // namespace dcn::shard
