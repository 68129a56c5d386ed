// The Inter-Operator Scheduler (IOS) dynamic program.
//
// Per branched block, the DP searches over partitions of the block's
// operators into an ordered sequence of stages, each stage split into
// parallel chain groups, minimizing the modeled latency
// sum(stage_seconds + inter_stage_gap). States are down-closed "done" sets
// (bitmask over block-local indices); transitions enumerate every valid
// next stage. This is the exact IOS formulation; the pruning width
// kMaxStageOps bounds the number of operators per stage like IOS's pruning
// parameter r.
//
// Linear segments are merged into one single-group stage (provably optimal
// under the cost model: merging removes inter-stage gaps and changes
// nothing else). The per-block results concatenate into the full schedule.
#pragma once

#include <cstdint>

#include "ios/schedule.hpp"
#include "simgpu/kernels.hpp"
#include "simgpu/spec.hpp"

namespace dcn::ios {

/// Largest branched block (in device ops) the exponential DP solves. Larger
/// blocks, which a user's SPP_{...} notation can build, take the
/// one-group-per-branch heuristic. Well below the 32-bit DP mask's width,
/// so every `Mask{1} << n` shift is defined.
inline constexpr int kMaxDpOps = 16;
/// Pruning width: maximum operators in one DP stage (IOS's r).
inline constexpr int kMaxStageOps = 12;

struct IosOptions {
  /// Batch size the schedule is optimized for (IOS specializes schedules
  /// per batch size, as does the paper's Figure 6 sweep).
  std::int64_t batch = 1;
  /// Kernel precision the schedule is optimized for. Int8 kernels have a
  /// different compute/memory balance, so fp32 and int8 DP instances are
  /// distinct.
  simgpu::Precision precision = simgpu::Precision::kFp32;
};

/// Run IOS over the whole graph for the given device and options.
Schedule optimize_schedule(const graph::Graph& graph,
                           const simgpu::DeviceSpec& spec,
                           const IosOptions& options = {});

/// Analytic latency of a schedule (device-queue view): per-stage modeled
/// durations plus inter-stage gaps. The executor reproduces this number on
/// the simulated timeline; the DP minimizes it.
double schedule_cost(const graph::Graph& graph,
                     const simgpu::DeviceSpec& spec, const Schedule& schedule,
                     std::int64_t batch,
                     simgpu::Precision precision = simgpu::Precision::kFp32);

/// Brute-force optimal cost over all valid schedules of a graph
/// (exponential; only for small test graphs — validates the DP).
double brute_force_best_cost(const graph::Graph& graph,
                             const simgpu::DeviceSpec& spec,
                             std::int64_t batch);

}  // namespace dcn::ios
