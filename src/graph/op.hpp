// Inference-graph operator nodes.
//
// The graph IR describes a trained model's inference computation as a DAG
// of operators with static per-sample tensor shapes. It is the common
// language between the IOS scheduler (which partitions branched blocks into
// stages/groups) and the simulated GPU (whose cost model consumes each
// operator's FLOP count, memory traffic, and parallelism).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dcn::graph {

enum class OpKind {
  kInput,
  kConv2d,
  kMaxPool,
  kAdaptivePool,
  kReLU,
  kLinear,
  kFlatten,
  kConcat,
  kOutput,
  /// Conv2d with the trailing ReLU applied in the GEMM epilogue store —
  /// one kernel launch, no intermediate pre-activation tensor in DRAM.
  kFusedConvReLU,
  /// Linear with the trailing ReLU fused the same way.
  kFusedLinearReLU,
};

const char* op_kind_name(OpKind kind);

/// Whether the op launches a device kernel at all (Input and Output do
/// not).
bool is_device_op(OpKind kind);

/// Whether `kind` is a fused compute op (base op + epilogue ReLU).
bool is_fused_kind(OpKind kind);

/// The compute op a fused kind wraps (kConv2d / kLinear); identity for
/// unfused kinds.
OpKind fused_base_kind(OpKind kind);

/// Per-sample tensor extents (no batch dimension; batch is a runtime knob).
struct TensorDesc {
  std::vector<std::int64_t> dims;

  std::int64_t numel() const;
  std::string to_string() const;
};

/// Operator attributes; which fields are meaningful depends on `kind`.
struct OpAttrs {
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  std::int64_t out_channels = 0;   // conv
  std::int64_t out_features = 0;   // linear
  std::int64_t pool_out = 0;       // adaptive pool target grid
};

using OpId = std::int32_t;
inline constexpr OpId kInvalidOp = -1;

struct OpNode {
  OpId id = kInvalidOp;
  OpKind kind = OpKind::kInput;
  std::string name;
  OpAttrs attrs;
  std::vector<OpId> inputs;
  TensorDesc output;

  /// Learnable parameter count (conv filters / linear weights).
  std::int64_t parameter_count(const TensorDesc& input_desc) const;

  /// Floating-point operations per sample.
  double flops(const TensorDesc& input_desc) const;

  /// Bytes moved per sample (activation reads + writes; float32), not
  /// counting weights — those are charged once per kernel launch. Fused
  /// kinds count only the real input read and final output write: the
  /// pre-activation intermediate their unfused twin would round-trip
  /// through DRAM never exists, so it must not be double-counted.
  double activation_bytes(const TensorDesc& input_desc) const;
};

}  // namespace dcn::graph
