// The SPP-Net drainage-crossing detector.
//
// Feature trunk (conv+ReLU / max-pool stages) -> spatial pyramid pooling ->
// fully-connected stack -> 5-way head [objectness logit | cx cy w h].
// Thanks to SPP, the same weights accept any input spatial size at
// inference; training uses the fixed 100x100 patches like the paper.
#pragma once

#include <array>
#include <memory>

#include "detect/sppnet_config.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "nn/sequential.hpp"
#include "nn/spp.hpp"

namespace dcn {
class Rng;
}

namespace dcn::detect {

/// One decoded prediction for an input image.
struct Prediction {
  float confidence = 0.0f;           // sigmoid(objectness logit)
  std::array<float, 4> box{};        // (cx, cy, w, h), normalized
};

/// Detection-head initialization (small final weights, prior-box bias);
/// shared by SppNet and the fixed-input baseline.
void init_detection_head(Linear& final_layer);

class SppNet : public Module {
 public:
  SppNet(SppNetConfig config, Rng& rng);

  /// [N,C,H,W] -> [N,5]. In training mode the layer modules run in turn and
  /// cache what backward needs. In eval mode the net runs the lowering
  /// graph::NumericExecutor runs for the same layers — conv2d_forward and
  /// linear_forward with the following ReLU fused into the GEMM epilogue,
  /// max_pool2d and spp_forward with no argmax — and writes no backward
  /// state. The two paths agree bit for bit unless a pre-activation is NaN
  /// or -0: the ReLU module maps those to +0, the fused epilogue passes
  /// them through.
  Tensor forward(const Tensor& input) override;
  /// Throws unless the last forward ran in training mode: an eval forward
  /// leaves the layer caches of an earlier training batch in place.
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "SppNet"; }
  void set_training(bool training) override;

  const SppNetConfig& config() const { return config_; }

  /// Structural access for post-training transforms (the INT8 quantizer
  /// walks these to calibrate and freeze each layer).
  Sequential& trunk() { return trunk_; }
  SpatialPyramidPool& spp_layer() { return spp_; }
  Sequential& head() { return head_; }

  /// Decode raw head outputs [N, 5] into per-image predictions.
  static std::vector<Prediction> decode(const Tensor& head_out);

  /// Forward + decode in eval mode (restores prior training flag).
  std::vector<Prediction> predict(const Tensor& input);

 private:
  Tensor infer(const Tensor& input);

  SppNetConfig config_;
  Sequential trunk_;
  SpatialPyramidPool spp_;
  Sequential head_;
  bool backward_ready_ = false;  // the last forward ran in training mode
};

}  // namespace dcn::detect
