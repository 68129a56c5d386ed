// Post-training INT8 quantization of a trained SPP-Net.
//
// QuantizedSppNet freezes a float SppNet into an int8 inference model:
// weights become symmetric per-output-channel int8 (exactly representable
// zero, no zero-point term on the weight side), activations become affine
// uint8 with per-tensor parameters calibrated by running a seeded
// calibration split through the float network (calibration.hpp). Conv and
// linear layers run conv2d_forward_int8 / linear_forward_int8 (qgemm with
// the dequantize+bias+ReLU epilogue fused into the int32->float store);
// max pools, SPP, and the layer boundaries stay float — pooling is
// order-preserving, so quantizing it would add error without saving
// meaningful work.
//
// The quantized forward pass inherits the tensor engine's determinism
// contract: outputs are bit-identical across thread counts and runs.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/calibration.hpp"
#include "detect/sppnet.hpp"
#include "tensor/quantize.hpp"

namespace dcn::detect {

/// A Module so the standard evaluation harness (evaluate_detector) scores
/// quantized and float models through one code path; backward throws — the
/// model is frozen, post-training.
class QuantizedSppNet : public Module {
 public:
  /// Calibrates on `calibration` (an NCHW float batch run through the float
  /// net layer by layer) and freezes `net`'s weights to int8. `net` is only
  /// used during construction; the quantized model owns everything after.
  QuantizedSppNet(SppNet& net, const Tensor& calibration);

  /// [N,C,H,W] float in -> [N,5] float out (raw head outputs, same contract
  /// as SppNet::forward in eval mode).
  Tensor forward(const Tensor& input) override;

  /// Always throws (inference-only model).
  Tensor backward(const Tensor& grad_output) override;

  std::string name() const override { return "QuantizedSppNet"; }

  /// Forward + SppNet::decode.
  std::vector<Prediction> predict(const Tensor& input);

  const SppNetConfig& config() const { return config_; }

  /// Calibrated activation parameters feeding each quantized layer, in
  /// execution order (convs then FC stack) — exposed for tests.
  const std::vector<QuantParams>& activation_params() const {
    return activation_params_;
  }

 private:
  /// A frozen conv or linear layer.
  struct QLayer {
    QuantizedWeights weights;  // conv [out_c, in_c*k*k]; linear [out, in]
    std::vector<float> bias;
    QuantParams input_params;
    bool relu = false;  // fused trailing ReLU
  };
  /// A trunk conv (`layer` set) or max pool, with its window geometry.
  struct TrunkOp {
    bool is_conv = false;
    std::int64_t kernel = 0;
    std::int64_t stride = 1;
    std::int64_t padding = 0;  // conv only
    QLayer layer;              // conv only
  };

  SppNetConfig config_;
  std::vector<TrunkOp> trunk_;
  std::vector<QLayer> head_;
  std::vector<QuantParams> activation_params_;
};

}  // namespace dcn::detect
