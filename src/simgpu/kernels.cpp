#include "simgpu/kernels.hpp"

#include "core/error.hpp"

namespace dcn::simgpu {

const char* precision_name(Precision precision) {
  switch (precision) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "fp32";
}

Precision precision_from_name(const std::string& name) {
  if (name == "fp32") return Precision::kFp32;
  if (name == "int8") return Precision::kInt8;
  throw ConfigError("unknown precision '" + name + "' (fp32|int8)");
}

bool int8_compute_eligible(profiler::KernelCategory category) {
  return category == profiler::KernelCategory::kConv ||
         category == profiler::KernelCategory::kMatMul;
}

profiler::KernelCategory categorize(graph::OpKind kind) {
  switch (kind) {
    case graph::OpKind::kLinear:
    case graph::OpKind::kFusedLinearReLU:
      return profiler::KernelCategory::kMatMul;
    case graph::OpKind::kConv2d:
    case graph::OpKind::kFusedConvReLU:
      return profiler::KernelCategory::kConv;
    case graph::OpKind::kMaxPool:
    case graph::OpKind::kAdaptivePool:
      return profiler::KernelCategory::kPooling;
    case graph::OpKind::kReLU:
      return profiler::KernelCategory::kElementwise;
    case graph::OpKind::kFlatten:
    case graph::OpKind::kConcat:
    case graph::OpKind::kInput:
    case graph::OpKind::kOutput:
      return profiler::KernelCategory::kMemory;
  }
  return profiler::KernelCategory::kMemory;
}

KernelDesc make_kernel_desc(const graph::Graph& graph, graph::OpId id,
                            Precision precision) {
  const graph::OpNode& node = graph.node(id);
  const graph::TensorDesc input = graph.input_desc(id);

  KernelDesc desc;
  desc.name = node.name;
  desc.category = categorize(node.kind);
  desc.precision = precision;
  if (!graph::is_device_op(node.kind)) return desc;

  // 1 byte per element instead of 4 for both activations and weights; the
  // MAC count is untouched (the int8 compute gain is a device property
  // applied by the cost model, not a change in the amount of math).
  const double bytes_scale = precision == Precision::kInt8 ? 0.25 : 1.0;
  desc.flops_per_sample = node.flops(input);
  desc.activation_bytes_per_sample =
      bytes_scale * node.activation_bytes(input);
  desc.weight_bytes =
      bytes_scale * 4.0 * static_cast<double>(node.parameter_count(input));
  desc.threads_per_sample = static_cast<double>(node.output.numel());
  if (desc.category == profiler::KernelCategory::kMatMul) {
    // GEMM/GEMV kernels parallelize the reduction dimension too (warp-level
    // split-K); one thread per output element would drastically understate
    // their occupancy and make FC layers compute-bound instead of
    // weight-read bound.
    desc.threads_per_sample *= 32.0;
  }
  return desc;
}

std::vector<KernelDesc> make_kernel_table(const graph::Graph& graph,
                                          Precision precision) {
  std::vector<KernelDesc> table;
  table.reserve(graph.size());
  for (const graph::OpNode& node : graph.nodes()) {
    table.push_back(make_kernel_desc(graph, node.id, precision));
  }
  return table;
}

double total_weight_bytes(const graph::Graph& graph) {
  double total = 0.0;
  for (const graph::OpNode& node : graph.nodes()) {
    total +=
        4.0 * static_cast<double>(node.parameter_count(graph.input_desc(node.id)));
  }
  return total;
}

}  // namespace dcn::simgpu
