#include "graph/numeric.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"

namespace dcn::graph {
namespace {

bool is_conv_kind(OpKind kind) {
  return kind == OpKind::kConv2d || kind == OpKind::kFusedConvReLU;
}

bool is_linear_kind(OpKind kind) {
  return kind == OpKind::kLinear || kind == OpKind::kFusedLinearReLU;
}

// The standalone ReLU node must agree bit-for-bit with the fused stores:
// GemmEpilogue computes `v < 0 ? 0 : v` and QuantEpilogue `max(x, 0)`, both
// of which pass -0.0 through unchanged — so this must too, or a fused graph
// and its unfused twin would diverge on negative zeros.
void relu_exact(const float* src, std::int64_t n, float* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = src[i];
    dst[i] = v < 0.0f ? 0.0f : v;
  }
}

}  // namespace

WeightMap extract_weights(detect::SppNet& net) {
  WeightMap map;
  Sequential& trunk = net.trunk();
  int conv_index = 0;
  for (std::size_t i = 0; i < trunk.size(); ++i) {
    if (auto* conv = dynamic_cast<Conv2d*>(&trunk.layer(i))) {
      map.emplace("conv" + std::to_string(conv_index),
                  OpWeights{conv->weight(), conv->bias()});
      ++conv_index;
    }
  }
  Sequential& head = net.head();
  std::vector<Linear*> linears;
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (auto* linear = dynamic_cast<Linear*>(&head.layer(i))) {
      linears.push_back(linear);
    }
  }
  DCN_CHECK(!linears.empty()) << "SPP-Net head has no linear layers";
  for (std::size_t i = 0; i < linears.size(); ++i) {
    const std::string name =
        i + 1 == linears.size() ? "head" : "fc" + std::to_string(i);
    map.emplace(name, OpWeights{linears[i]->weight(), linears[i]->bias()});
  }
  return map;
}

NumericExecutor::NumericExecutor(const Graph& graph, WeightMap weights)
    : graph_(graph), weights_(std::move(weights)), quant_(graph.size()) {
  validate_shapes(graph_);
  int inputs = 0;
  int outputs = 0;
  for (const OpNode& node : graph_.nodes()) {
    if (node.kind == OpKind::kInput) ++inputs;
    if (node.kind == OpKind::kOutput) ++outputs;
    if (is_conv_kind(node.kind)) {
      const auto it = weights_.find(node.name);
      if (it == weights_.end()) {
        throw ConfigError("NumericExecutor: no weights bound for conv op '" +
                          node.name + "'");
      }
      const Tensor& w = it->second.weight;
      const TensorDesc in = graph_.input_desc(node.id);
      if (w.rank() != 4 || w.dim(0) != node.attrs.out_channels ||
          w.dim(1) != in.dims[0] || w.dim(2) != node.attrs.kernel ||
          w.dim(3) != node.attrs.kernel ||
          it->second.bias.numel() != node.attrs.out_channels) {
        throw ConfigError("NumericExecutor: weight shape mismatch for conv "
                          "op '" + node.name + "'");
      }
    } else if (is_linear_kind(node.kind)) {
      const auto it = weights_.find(node.name);
      if (it == weights_.end()) {
        throw ConfigError("NumericExecutor: no weights bound for linear op '" +
                          node.name + "'");
      }
      const Tensor& w = it->second.weight;
      if (w.rank() != 2 || w.dim(0) != node.attrs.out_features ||
          w.dim(1) != graph_.input_desc(node.id).numel() ||
          it->second.bias.numel() != node.attrs.out_features) {
        throw ConfigError("NumericExecutor: weight shape mismatch for linear "
                          "op '" + node.name + "'");
      }
    }
  }
  if (inputs != 1) {
    throw ConfigError("NumericExecutor: graph must have exactly one Input, "
                      "got " + std::to_string(inputs));
  }
  if (outputs > 1) {
    throw ConfigError("NumericExecutor: graph must have at most one Output, "
                      "got " + std::to_string(outputs));
  }
}

Tensor NumericExecutor::run(const Tensor& input, bool int8,
                            std::vector<detect::RangeObserver>* observers)
    const {
  const std::int64_t batch = input.rank() > 0 ? input.dim(0) : 0;
  if (batch < 1) {
    throw ConfigError("NumericExecutor: batch must be >= 1");
  }
  std::vector<Tensor> values(graph_.size());
  OpId output_id = kInvalidOp;
  OpId last_id = kInvalidOp;
  // Insertion order is topological by Graph::add_op's construction.
  for (const OpNode& node : graph_.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    last_id = node.id;
    switch (node.kind) {
      case OpKind::kInput: {
        DCN_CHECK(input.rank() == node.output.dims.size() + 1)
            << "input rank " << input.rank() << " != 1 + "
            << node.output.dims.size();
        for (std::size_t d = 0; d < node.output.dims.size(); ++d) {
          DCN_CHECK(input.dim(d + 1) == node.output.dims[d])
              << "input dim " << d + 1 << " is " << input.dim(d + 1)
              << ", graph expects " << node.output.dims[d];
        }
        values[idx] = input;
        break;
      }
      case OpKind::kConv2d:
      case OpKind::kFusedConvReLU: {
        const Tensor& x = values[static_cast<std::size_t>(node.inputs[0])];
        if (observers != nullptr) {
          (*observers)[idx].observe(x.data(), x.numel());
        }
        const bool fused = node.kind == OpKind::kFusedConvReLU;
        const OpWeights& w = weights_.at(node.name);
        const QuantOp& q = quant_[idx];
        values[idx] =
            int8 ? conv2d_forward_int8(x, q.weights, w.bias.data(),
                                       q.input_params, node.attrs.kernel,
                                       node.attrs.stride, node.attrs.padding,
                                       fused)
                 : conv2d_forward(x, w.weight, w.bias.data(),
                                  node.attrs.stride, node.attrs.padding,
                                  fused);
        break;
      }
      case OpKind::kLinear:
      case OpKind::kFusedLinearReLU: {
        const Tensor& raw = values[static_cast<std::size_t>(node.inputs[0])];
        if (observers != nullptr) {
          (*observers)[idx].observe(raw.data(), raw.numel());
        }
        // A folded Flatten may leave the producer rank-3+; the buffer is
        // contiguous row-major, so the flatten really is metadata-only.
        const Tensor x = raw.rank() == 2
                             ? raw
                             : raw.reshaped(Shape{batch, raw.numel() / batch});
        const bool fused = node.kind == OpKind::kFusedLinearReLU;
        const OpWeights& w = weights_.at(node.name);
        const QuantOp& q = quant_[idx];
        values[idx] = int8 ? linear_forward_int8(x, q.weights, w.bias.data(),
                                                 q.input_params, fused)
                           : linear_forward(x, w.weight, w.bias.data(), fused);
        break;
      }
      case OpKind::kMaxPool:
        values[idx] =
            max_pool2d(values[static_cast<std::size_t>(node.inputs[0])],
                       node.attrs.kernel, node.attrs.stride);
        break;
      case OpKind::kAdaptivePool:
        values[idx] = adaptive_max_pool2d(
            values[static_cast<std::size_t>(node.inputs[0])],
            node.attrs.pool_out, node.attrs.pool_out);
        break;
      case OpKind::kReLU: {
        const Tensor& x = values[static_cast<std::size_t>(node.inputs[0])];
        Tensor out(x.shape());
        relu_exact(x.data(), x.numel(), out.data());
        values[idx] = std::move(out);
        break;
      }
      case OpKind::kFlatten: {
        const Tensor& x = values[static_cast<std::size_t>(node.inputs[0])];
        values[idx] = x.reshaped(Shape{batch, node.output.numel()});
        break;
      }
      case OpKind::kConcat: {
        const std::int64_t total = node.output.numel();
        Tensor out(Shape{batch, total});
        std::int64_t offset = 0;
        // Per-sample contiguous branch blocks, in input order — byte-for-
        // byte the SpatialPyramidPool layout, whether or not the branches
        // still carry their Flatten nodes.
        for (OpId in : node.inputs) {
          const Tensor& v = values[static_cast<std::size_t>(in)];
          const std::int64_t feat = v.numel() / batch;
          for (std::int64_t s = 0; s < batch; ++s) {
            const float* src = v.data() + s * feat;
            float* dst = out.data() + s * total + offset;
            std::copy(src, src + feat, dst);
          }
          offset += feat;
        }
        values[idx] = std::move(out);
        break;
      }
      case OpKind::kOutput: {
        values[idx] = values[static_cast<std::size_t>(node.inputs[0])];
        output_id = node.id;
        break;
      }
    }
  }
  const OpId result = output_id != kInvalidOp ? output_id : last_id;
  DCN_CHECK(result != kInvalidOp) << "empty graph";
  return values[static_cast<std::size_t>(result)];
}

Tensor NumericExecutor::forward(const Tensor& input) const {
  return run(input, /*int8=*/false, nullptr);
}

void NumericExecutor::quantize(const Tensor& calibration,
                               const detect::CalibrationOptions& options) {
  if (calibration.rank() != 4 || calibration.dim(0) < 1) {
    throw ConfigError("NumericExecutor::quantize: calibration batch must be "
                      "non-empty NCHW, got " +
                      calibration.shape().to_string());
  }
  std::vector<detect::RangeObserver> observers(graph_.size());
  (void)run(calibration, /*int8=*/false, &observers);
  for (const OpNode& node : graph_.nodes()) {
    if (!is_conv_kind(node.kind) && !is_linear_kind(node.kind)) continue;
    const OpWeights& w = weights_.at(node.name);
    QuantOp q;
    const std::int64_t rows = w.weight.dim(0);
    q.weights = quantize_weights_per_channel(w.weight.data(), rows,
                                             w.weight.numel() / rows);
    q.input_params =
        observers[static_cast<std::size_t>(node.id)].quant_params(options);
    quant_[static_cast<std::size_t>(node.id)] = std::move(q);
  }
  quantized_ = true;
}

Tensor NumericExecutor::forward_int8(const Tensor& input) const {
  if (!quantized_) {
    throw ConfigError("NumericExecutor::forward_int8 before quantize()");
  }
  return run(input, /*int8=*/true, nullptr);
}

}  // namespace dcn::graph
