#include "detect/quantized_sppnet.hpp"

#include "core/error.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/spp.hpp"

namespace dcn::detect {

QuantizedSppNet::QuantizedSppNet(SppNet& net, const Tensor& calibration,
                                 const CalibrationOptions& options)
    : config_(net.config()) {
  DCN_CHECK(calibration.rank() == 4 && calibration.dim(0) > 0)
      << "calibration batch must be non-empty NCHW, got "
      << calibration.shape().to_string();
  const bool was_training = net.is_training();
  net.set_training(false);

  // Walk the float net layer by layer: observe the activations `x` feeding
  // each conv/linear, freeze its weights, and note a trailing ReLU so it
  // fuses into the qgemm epilogue (the float walk still executes the ReLU
  // module itself — only the quantized replay skips it).
  Tensor x = calibration;
  const auto freeze = [&](Tensor& weight, Tensor& bias,
                          Sequential& layers, std::size_t i) {
    RangeObserver observer;
    observer.observe(x.data(), x.numel());
    QLayer q;
    const std::int64_t rows = weight.dim(0);
    q.weights = quantize_weights_per_channel(weight.data(), rows,
                                             weight.numel() / rows);
    q.bias.assign(bias.data(), bias.data() + rows);
    q.input_params = observer.quant_params(options);
    q.relu = i + 1 < layers.size() &&
             dynamic_cast<ReLU*>(&layers.layer(i + 1)) != nullptr;
    activation_params_.push_back(q.input_params);
    return q;
  };
  Sequential& trunk = net.trunk();
  for (std::size_t i = 0; i < trunk.size(); ++i) {
    Module& layer = trunk.layer(i);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      TrunkOp op;
      op.is_conv = true;
      op.kernel = conv->kernel_size();
      op.stride = conv->stride();
      op.padding = conv->padding();
      op.layer = freeze(conv->weight(), conv->bias(), trunk, i);
      trunk_.push_back(std::move(op));
    } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
      TrunkOp op;
      op.kernel = pool->kernel_size();
      op.stride = pool->stride();
      trunk_.push_back(std::move(op));
    } else {
      DCN_CHECK(dynamic_cast<ReLU*>(&layer) != nullptr)
          << "unsupported trunk layer " << layer.name();
    }
    x = layer.forward(x);
  }
  x = spp_forward(x, config_.spp_levels);
  Sequential& head = net.head();
  for (std::size_t i = 0; i < head.size(); ++i) {
    Module& layer = head.layer(i);
    if (auto* linear = dynamic_cast<Linear*>(&layer)) {
      head_.push_back(freeze(linear->weight(), linear->bias(), head, i));
    } else {
      DCN_CHECK(dynamic_cast<ReLU*>(&layer) != nullptr)
          << "unsupported head layer " << layer.name();
    }
    x = layer.forward(x);
  }
  DCN_CHECK(!head_.empty()) << "quantized net has no head";
  net.set_training(was_training);
}

Tensor QuantizedSppNet::forward(const Tensor& input) {
  Tensor x = input;
  for (const TrunkOp& op : trunk_) {
    const QLayer& q = op.layer;
    x = op.is_conv ? conv2d_forward_int8(x, q.weights, q.bias.data(),
                                         q.input_params, op.kernel, op.stride,
                                         op.padding, q.relu)
                   : max_pool2d(x, op.kernel, op.stride);
  }
  x = spp_forward(x, config_.spp_levels);
  for (const QLayer& q : head_) {
    x = linear_forward_int8(x, q.weights, q.bias.data(), q.input_params,
                            q.relu);
  }
  return x;
}

Tensor QuantizedSppNet::backward(const Tensor&) {
  throw Error("QuantizedSppNet is inference-only; train the float model and "
              "re-quantize instead");
}

std::vector<Prediction> QuantizedSppNet::predict(const Tensor& input) {
  return SppNet::decode(forward(input));
}

}  // namespace dcn::detect
