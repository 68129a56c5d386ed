#include "graph/op.hpp"

#include <sstream>

#include "core/error.hpp"

namespace dcn::graph {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "Input";
    case OpKind::kConv2d:
      return "Conv2d";
    case OpKind::kMaxPool:
      return "MaxPool";
    case OpKind::kAdaptivePool:
      return "AdaptivePool";
    case OpKind::kReLU:
      return "ReLU";
    case OpKind::kLinear:
      return "Linear";
    case OpKind::kFlatten:
      return "Flatten";
    case OpKind::kConcat:
      return "Concat";
    case OpKind::kOutput:
      return "Output";
    case OpKind::kFusedConvReLU:
      return "FusedConvReLU";
    case OpKind::kFusedLinearReLU:
      return "FusedLinearReLU";
  }
  return "Unknown";
}

bool is_device_op(OpKind kind) {
  return kind != OpKind::kInput && kind != OpKind::kOutput;
}

std::int64_t TensorDesc::numel() const {
  std::int64_t n = 1;
  for (auto d : dims) n *= d;
  return n;
}

std::string TensorDesc::to_string() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) os << 'x';
    os << dims[i];
  }
  os << ')';
  return os.str();
}

std::int64_t OpNode::parameter_count(const TensorDesc& input_desc) const {
  switch (kind) {
    case OpKind::kConv2d:
    case OpKind::kFusedConvReLU: {
      DCN_CHECK(input_desc.dims.size() == 3) << "conv input must be CHW";
      const std::int64_t in_c = input_desc.dims[0];
      return attrs.out_channels * in_c * attrs.kernel * attrs.kernel +
             attrs.out_channels;
    }
    case OpKind::kLinear:
    case OpKind::kFusedLinearReLU: {
      const std::int64_t in_f = input_desc.numel();
      return attrs.out_features * in_f + attrs.out_features;
    }
    default:
      return 0;
  }
}

double OpNode::flops(const TensorDesc& input_desc) const {
  switch (kind) {
    // A fused conv+ReLU costs exactly the conv's MACs: the max(x, 0) rides
    // the epilogue store of output elements that are already in registers,
    // so it adds no counted work — summing the constituents' FLOPs would
    // double-charge the output sweep.
    case OpKind::kConv2d:
    case OpKind::kFusedConvReLU: {
      DCN_CHECK(output.dims.size() == 3) << "conv output must be CHW";
      const std::int64_t in_c = input_desc.dims[0];
      const double per_output = 2.0 * in_c * attrs.kernel * attrs.kernel;
      return per_output * static_cast<double>(output.numel());
    }
    case OpKind::kLinear:
    case OpKind::kFusedLinearReLU:
      return 2.0 * static_cast<double>(input_desc.numel()) *
             static_cast<double>(attrs.out_features);
    case OpKind::kMaxPool:
      return static_cast<double>(output.numel()) * attrs.kernel * attrs.kernel;
    case OpKind::kAdaptivePool: {
      // Each output cell scans roughly (H/out)*(W/out) inputs.
      const double window =
          static_cast<double>(input_desc.numel()) /
          std::max<double>(1.0, static_cast<double>(output.numel()));
      return static_cast<double>(output.numel()) * window;
    }
    case OpKind::kReLU:
      return static_cast<double>(output.numel());
    case OpKind::kFlatten:
    case OpKind::kConcat:
    case OpKind::kInput:
    case OpKind::kOutput:
      return 0.0;
  }
  return 0.0;
}

double OpNode::activation_bytes(const TensorDesc& input_desc) const {
  // One input read plus one output write — for fused kinds this is the fix
  // for the double-count bug: the unfused twin's accounting is
  //   conv: (in + mid) + relu: (mid + out)  with mid == out,
  // i.e. the intermediate pre-activation tensor is charged twice, but the
  // fused kernel never writes it to DRAM at all.
  return 4.0 * (static_cast<double>(input_desc.numel()) +
                static_cast<double>(output.numel()));
}

}  // namespace dcn::graph
