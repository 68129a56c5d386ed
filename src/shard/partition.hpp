// Automatic pipeline partitioning of an inference graph across K devices.
//
// The partitioner splits the (fused, optimized) graph's device
// operators — in topological order — into K contiguous stages, each small
// enough to live resident on one device, balanced by the simgpu cost
// model. A dynamic program over cut positions minimizes the bottleneck
// stage time: the IOS-optimized compute cost of the stage's subgraph plus
// the PCIe cost of staging every activation edge cut by the stage's input
// boundary (one D2H on the producer's device + one H2D on the consumer's,
// per distinct cut producer). Pipeline throughput is set by the slowest
// stage, so min-max is the right objective.
//
// Cut legality honors fusion: a fused kFusedConvReLU / kFusedLinearReLU is
// a single node and trivially atomic, and on an *unfused* graph a cut is
// never placed between a conv/linear and a ReLU that directly consumes it
// — the pair the optimizer would fuse must land in one stage, or the fused
// and unfused graphs would partition incompatibly.
//
// Each stage is materialized as a standalone subgraph (a kInput node per
// distinct external producer, a kOutput node per activation leaving the
// stage) so a plain ios::InferenceSession prices the stage exactly: its
// built-in H2D input / D2H output copies *are* the PCIe staging of the cut
// activations.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "ios/scheduler.hpp"
#include "simgpu/spec.hpp"

namespace dcn::shard {

struct PartitionOptions {
  /// Number of pipeline stages K (one device each). Must satisfy
  /// 1 <= stages <= number of device operators; anything else throws
  /// ConfigError.
  int stages = 2;
  /// IOS options each stage's subgraph schedule is optimized with (batch =
  /// the microbatch size the pipeline will run; precision selects the
  /// kernel variants and the int8 activation widths).
  ios::IosOptions ios;
};

/// One pipeline stage: a contiguous slice of the model on its own device.
struct StagePlan {
  /// Original-graph ids of the device ops in this stage (topo order).
  std::vector<graph::OpId> ops;
  /// Standalone executable subgraph (see file comment).
  graph::Graph subgraph;
  /// IOS-optimized schedule of `subgraph`.
  ios::Schedule schedule;
  /// schedule_cost of the stage at the partition batch/precision.
  double compute_seconds = 0.0;
  /// Activation bytes entering / leaving the stage per sample (cut edges
  /// only; the model input and final output are not cut edges).
  std::int64_t input_bytes = 0;
  std::int64_t output_bytes = 0;
  /// This stage's share of the PCIe staging at the partition batch: one
  /// H2D per distinct cut input producer plus one D2H per cut output —
  /// exactly the copies its InferenceSession pays per run.
  double transfer_seconds = 0.0;
  /// Resident bytes the stage needs: weights + activation workspace.
  std::int64_t resident_bytes = 0;
};

struct Partition {
  std::vector<StagePlan> stages;
  /// max over stages of (compute + transfer-in): the steady-state
  /// per-microbatch interval of the pipeline — its throughput bound.
  double bottleneck_seconds = 0.0;
  /// Sum of every stage's compute (the serial work the pipeline spreads).
  double total_compute_seconds = 0.0;
  /// Sum of every stage's transfer-in cost (the sharding tax).
  double total_transfer_seconds = 0.0;
};

/// Partition `graph` into options.stages pipeline stages for devices of
/// `spec`. Deterministic. Throws ConfigError for an out-of-range stage
/// count or when no legal, memory-feasible K-way split exists.
Partition partition_graph(const graph::Graph& graph,
                          const simgpu::DeviceSpec& spec,
                          const PartitionOptions& options);

}  // namespace dcn::shard
