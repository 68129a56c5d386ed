#include "ios/hios_lite.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "ios/executor.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::ios {
namespace {

/// Effective GPU<->GPU interconnect bandwidth (bytes/s; NVLink-class).
constexpr double kInterconnectBandwidth = 112e9;
/// Fixed latency per collective / peer transfer (seconds).
constexpr double kTransferLatency = 10e-6;

}  // namespace

double data_parallel_latency(const graph::Graph& graph,
                             const Schedule& schedule,
                             const simgpu::DeviceSpec& spec,
                             std::int64_t batch,
                             const MultiGpuConfig& config) {
  DCN_CHECK(config.num_gpus >= 1) << "num_gpus";
  DCN_CHECK(batch >= 1) << "batch";
  const std::int64_t shard =
      (batch + config.num_gpus - 1) / config.num_gpus;
  // Every replica runs the same shard-sized workload; the simulator is
  // deterministic, so one replica's latency is the per-replica time.
  simgpu::Device device(spec);
  const double replica = measure_latency(graph, schedule, device, shard);

  // Input scatter and output gather across the interconnect. Shards beyond
  // replica 0 must be shipped to their device (the host copy is already in
  // the replica latency; peer traffic adds the interconnect hop).
  double output_bytes = 0.0;
  double input_bytes = 0.0;
  for (const graph::OpNode& node : graph.nodes()) {
    if (node.kind == graph::OpKind::kInput) {
      input_bytes += 4.0 * static_cast<double>(node.output.numel());
    }
    if (node.kind == graph::OpKind::kOutput) {
      output_bytes += 4.0 * static_cast<double>(node.output.numel());
    }
  }
  const double remote_shards = static_cast<double>(config.num_gpus - 1);
  const double scatter =
      remote_shards > 0
          ? kTransferLatency +
                remote_shards * static_cast<double>(shard) * input_bytes /
                    kInterconnectBandwidth
          : 0.0;
  const double gather =
      remote_shards > 0
          ? kTransferLatency +
                remote_shards * static_cast<double>(shard) * output_bytes /
                    kInterconnectBandwidth
          : 0.0;
  return scatter + replica + gather;
}

double branch_parallel_latency(const graph::Graph& graph,
                               const Schedule& schedule,
                               const simgpu::DeviceSpec& spec,
                               std::int64_t batch,
                               const MultiGpuConfig& config) {
  DCN_CHECK(config.num_gpus >= 1) << "num_gpus";
  validate_schedule(graph, schedule);
  const auto kernels = simgpu::make_kernel_table(graph);

  double total = 0.0;
  for (const Stage& stage : schedule.stages) {
    if (stage.groups.size() <= 1 || config.num_gpus == 1) {
      // Whole stage on GPU 0.
      std::vector<std::vector<simgpu::KernelDesc>> groups;
      for (const Group& group : stage.groups) {
        std::vector<simgpu::KernelDesc> ks;
        for (graph::OpId id : group.ops) {
          ks.push_back(kernels[static_cast<std::size_t>(id)]);
        }
        groups.push_back(std::move(ks));
      }
      total += simgpu::stage_seconds(spec, groups, batch) +
               spec.inter_stage_gap;
      continue;
    }

    // Round-robin group placement; per-GPU groups execute concurrently on
    // their own device, so the per-device stage model applies per GPU and
    // the stage completes at the slowest GPU.
    std::vector<std::vector<std::vector<simgpu::KernelDesc>>> per_gpu(
        static_cast<std::size_t>(config.num_gpus));
    std::vector<double> transfer(static_cast<std::size_t>(config.num_gpus),
                                 0.0);
    for (std::size_t g = 0; g < stage.groups.size(); ++g) {
      const int gpu = static_cast<int>(g % config.num_gpus);
      std::vector<simgpu::KernelDesc> ks;
      for (graph::OpId id : stage.groups[g].ops) {
        ks.push_back(kernels[static_cast<std::size_t>(id)]);
      }
      if (gpu != 0 && !stage.groups[g].ops.empty()) {
        // Ship the group's input activation over and its output back.
        const graph::OpId head = stage.groups[g].ops.front();
        const graph::OpId tail = stage.groups[g].ops.back();
        const double in_bytes =
            4.0 * static_cast<double>(graph.input_desc(head).numel()) *
            static_cast<double>(batch);
        const double out_bytes =
            4.0 * static_cast<double>(graph.node(tail).output.numel()) *
            static_cast<double>(batch);
        transfer[static_cast<std::size_t>(gpu)] +=
            2.0 * kTransferLatency +
            (in_bytes + out_bytes) / kInterconnectBandwidth;
      }
      per_gpu[static_cast<std::size_t>(gpu)].push_back(std::move(ks));
    }
    double stage_time = 0.0;
    for (std::size_t gpu = 0; gpu < per_gpu.size(); ++gpu) {
      if (per_gpu[gpu].empty()) continue;
      stage_time =
          std::max(stage_time, simgpu::stage_seconds(spec, per_gpu[gpu],
                                                     batch) +
                                   transfer[gpu]);
    }
    total += stage_time + spec.inter_stage_gap;
  }
  return total;
}

}  // namespace dcn::ios
