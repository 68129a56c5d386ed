// Multi-GPU scheduling extensions (the paper's future-work direction,
// §4.1/§8.3: HIOS-style inter-GPU operator parallelism and NAS beyond a
// single GPU).
//
// Two latency models on top of the simulated device:
//  - data_parallel_latency: the batch is sharded across replicas; each
//    replica runs the single-GPU schedule on its shard, then a collective
//    gathers results over the interconnect. This is the standard
//    throughput-scaling path.
//  - branch_parallel_latency: HIOS's idea at block granularity — the
//    groups of a parallel stage are placed on different GPUs, which costs
//    an activation transfer per remote group in both directions. For
//    SPP-Net's small branches the transfers dominate, which quantifies why
//    the paper (like HIOS) reserves inter-GPU parallelism for models with
//    heavyweight branches.
#pragma once

#include <cstdint>

#include "ios/schedule.hpp"
#include "simgpu/spec.hpp"

namespace dcn::ios {

/// GPUs are linked by an NVLink-class interconnect: 112 GB/s effective,
/// 10 us fixed latency per collective or peer transfer.
struct MultiGpuConfig {
  int num_gpus = 2;
};

/// Latency of one batch sharded across `config.num_gpus` replicas, each
/// executing `schedule` on its shard (includes input scatter and output
/// gather over the interconnect).
double data_parallel_latency(const graph::Graph& graph,
                             const Schedule& schedule,
                             const simgpu::DeviceSpec& spec,
                             std::int64_t batch, const MultiGpuConfig& config);

/// Latency of `schedule` with the groups of every multi-group stage placed
/// round-robin across GPUs; remote groups pay activation transfers to and
/// from their device. Single-group stages run on GPU 0.
double branch_parallel_latency(const graph::Graph& graph,
                               const Schedule& schedule,
                               const simgpu::DeviceSpec& spec,
                               std::int64_t batch,
                               const MultiGpuConfig& config);

}  // namespace dcn::ios
