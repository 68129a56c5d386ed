#include "detect/sppnet.hpp"

#include <cmath>

#include "core/error.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/pool.hpp"

namespace dcn::detect {

SppNet::SppNet(SppNetConfig config, Rng& rng)
    : config_(std::move(config)), spp_(config_.spp_levels) {
  DCN_CHECK(!config_.trunk.empty()) << "SPP-Net needs a feature trunk";
  std::int64_t channels = config_.in_channels;
  for (const TrunkStage& stage : config_.trunk) {
    if (stage.kind == TrunkStage::Kind::kConv) {
      trunk_.emplace<Conv2d>(channels, stage.conv.filters, stage.conv.kernel,
                             stage.conv.stride, rng);
      trunk_.emplace<ReLU>();
      channels = stage.conv.filters;
    } else {
      trunk_.emplace<MaxPool2d>(stage.pool.kernel, stage.pool.stride);
    }
  }
  std::int64_t features = config_.spp_features();
  for (std::int64_t fc : config_.fc_sizes) {
    head_.emplace<Linear>(features, fc, rng);
    head_.emplace<ReLU>();
    features = fc;
  }
  Linear& final = head_.emplace<Linear>(features, config_.head_outputs, rng);
  init_detection_head(final);
}

void init_detection_head(Linear& final_layer) {
  // Detection-standard head init: damp the final weights so early
  // predictions stay near the prior, and bias the box regressors at the
  // dataset's box prior (centered object, ~0.2 of the patch side). The
  // objectness bias starts mildly negative (prior probability ~0.27).
  Tensor& w = final_layer.weight();
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] *= 0.01f;
  Tensor& b = final_layer.bias();
  DCN_CHECK(b.numel() == 5) << "detection head must have 5 outputs";
  b[0] = -1.0f;
  b[1] = 0.5f;
  b[2] = 0.5f;
  b[3] = 0.2f;
  b[4] = 0.2f;
}

Tensor SppNet::forward(const Tensor& input) {
  backward_ready_ = false;
  if (!is_training()) return infer(input);
  const Tensor features = trunk_.forward(input);
  const Tensor pooled = spp_.forward(features);
  Tensor output = head_.forward(pooled);
  backward_ready_ = true;
  return output;
}

Tensor SppNet::infer(const Tensor& input) {
  // A ReLU module after a conv or linear layer folds into its epilogue.
  const auto relu_follows = [](Sequential& layers, std::size_t i) {
    return i + 1 < layers.size() &&
           dynamic_cast<ReLU*>(&layers.layer(i + 1)) != nullptr;
  };
  Tensor x;
  for (std::size_t i = 0; i < trunk_.size(); ++i) {
    const Tensor& in = i == 0 ? input : x;
    Module& layer = trunk_.layer(i);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      const bool relu = relu_follows(trunk_, i);
      x = conv2d_forward(in, conv->weight(), conv->bias().data(),
                         conv->stride(), conv->padding(), relu);
      if (relu) ++i;
    } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
      x = max_pool2d(in, pool->kernel_size(), pool->stride());
    } else {
      throw Error("SppNet eval forward: unsupported trunk layer " +
                  layer.name());
    }
  }
  x = spp_forward(x, spp_.levels());
  for (std::size_t i = 0; i < head_.size(); ++i) {
    auto* linear = dynamic_cast<Linear*>(&head_.layer(i));
    DCN_CHECK(linear != nullptr) << "SppNet eval forward: unsupported head "
                                 << "layer " << head_.layer(i).name();
    const bool relu = relu_follows(head_, i);
    x = linear_forward(x, linear->weight(), linear->bias().data(), relu);
    if (relu) ++i;
  }
  return x;
}

Tensor SppNet::backward(const Tensor& grad_output) {
  DCN_CHECK(backward_ready_)
      << "SppNet::backward needs a training-mode forward first; an eval "
         "forward keeps no backward state";
  const Tensor g_pooled = head_.backward(grad_output);
  const Tensor g_features = spp_.backward(g_pooled);
  return trunk_.backward(g_features);
}

std::vector<ParamRef> SppNet::parameters() {
  std::vector<ParamRef> params;
  for (ParamRef p : trunk_.parameters()) {
    p.name = "trunk." + p.name;
    params.push_back(p);
  }
  for (ParamRef p : head_.parameters()) {
    p.name = "head." + p.name;
    params.push_back(p);
  }
  return params;
}

void SppNet::set_training(bool training) {
  Module::set_training(training);
  trunk_.set_training(training);
  head_.set_training(training);
}

std::vector<Prediction> SppNet::decode(const Tensor& head_out) {
  DCN_CHECK(head_out.rank() == 2 && head_out.dim(1) == 5)
      << "decode expects [N, 5]";
  const std::int64_t n = head_out.dim(0);
  std::vector<Prediction> preds(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float logit = head_out[i * 5];
    Prediction& p = preds[static_cast<std::size_t>(i)];
    p.confidence = 1.0f / (1.0f + std::exp(-logit));
    for (std::int64_t c = 0; c < 4; ++c) {
      p.box[static_cast<std::size_t>(c)] = head_out[i * 5 + 1 + c];
    }
  }
  return preds;
}

std::vector<Prediction> SppNet::predict(const Tensor& input) {
  const bool was_training = is_training();
  set_training(false);
  const Tensor out = forward(input);
  set_training(was_training);
  return decode(out);
}

}  // namespace dcn::detect
