// Kernel descriptors: the unit of work the simulated device executes.
//
// A KernelDesc captures the batch-independent work profile of one graph
// operator; the cost model scales it by the runtime batch size. Weights are
// charged as DRAM reads on every launch (they are resident on-device but
// not in cache), which is what makes small-batch FC layers memory-bound —
// the effect behind the paper's Table-3 MatMul dominance at batch 1.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "profiler/events.hpp"

namespace dcn::simgpu {

/// Numeric precision a kernel executes at. INT8 kernels read quarter-width
/// activations and weights, and the dense math (conv/GEMM) runs through the
/// device's DP4A/IMMA path (DeviceSpec::int8_throughput_multiplier).
enum class Precision { kFp32 = 0, kInt8 = 1 };

const char* precision_name(Precision precision);
/// Inverse of precision_name; throws ConfigError for unknown names.
Precision precision_from_name(const std::string& name);

/// Whether the int8 compute path accelerates this kernel category (dense
/// conv/GEMM math; pooling, elementwise, and copies only gain the
/// quarter-width memory traffic).
bool int8_compute_eligible(profiler::KernelCategory category);

/// Operation fused into a kernel's output store (the graph optimizer's
/// FusedConvReLU / FusedLinearReLU nodes). Deliberately part of a kernel's
/// *identity*, not its work profile: the epilogue is free in the cost model
/// (it rides registers already being written back), which makes a fused
/// kernel's flops/bytes/threads identical to its unfused base op's — so
/// anything keying kernels by work profile alone would collide the two.
enum class Epilogue { kNone = 0, kReLU = 1 };

const char* epilogue_name(Epilogue epilogue);

struct KernelDesc {
  std::string name;
  profiler::KernelCategory category = profiler::KernelCategory::kConv;
  Precision precision = Precision::kFp32;
  Epilogue epilogue = Epilogue::kNone;
  /// FLOPs per sample (MAC count — precision-independent; the cost model
  /// applies the int8 throughput multiplier for eligible categories).
  double flops_per_sample = 0.0;
  /// Activation bytes (in + out) per sample at this precision.
  double activation_bytes_per_sample = 0.0;
  /// Weight bytes read per launch (batch-independent) at this precision.
  double weight_bytes = 0.0;
  /// Parallel threads per sample (one per output element).
  double threads_per_sample = 0.0;
};

/// Map a graph op kind to its profiling category (fused kinds categorize as
/// their base compute op: a FusedConvReLU is still one conv-shaped launch).
profiler::KernelCategory categorize(graph::OpKind kind);

/// Build the kernel descriptor for one graph node at the given precision.
/// INT8 descriptors carry quarter-width activation/weight traffic; the op's
/// MAC count is unchanged (the throughput gain is a device property).
KernelDesc make_kernel_desc(const graph::Graph& graph, graph::OpId id,
                            Precision precision = Precision::kFp32);

/// Descriptors for every device op in the graph, indexed by OpId (ops that
/// launch nothing get a zero-work descriptor).
std::vector<KernelDesc> make_kernel_table(
    const graph::Graph& graph, Precision precision = Precision::kFp32);

/// Total weight bytes of the model (what lives in device DRAM).
double total_weight_bytes(const graph::Graph& graph);

}  // namespace dcn::simgpu
