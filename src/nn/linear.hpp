// Fully-connected layer (paper's F_{neurons}): the layer module and the one
// fp32 and one int8 forward that every inference path runs.
#pragma once

#include "nn/module.hpp"
#include "tensor/quantize.hpp"

namespace dcn {

class Rng;

/// The fp32 layer: y[N, out] = x[N, in] W[out, in]^T + `bias` [out], then a
/// ReLU when `relu`; bias and ReLU are fused into the GEMM's epilogue.
Tensor linear_forward(const Tensor& input, const Tensor& weight,
                      const float* bias, bool relu);

/// The int8 layer: x quantized by `input_params` and transposed so the
/// activations are qgemm's right operand, y^T[out, N] = W[out, in] x^T[in, N]
/// against the symmetric int8 `weights`, with dequantize, the per-feature
/// `bias` (a per-row bias of the transposed product) and ReLU fused into the
/// store, then transposed back to [N, out].
Tensor linear_forward_int8(const Tensor& input,
                           const QuantizedWeights& weights, const float* bias,
                           const QuantParams& input_params, bool relu);

/// y = x W^T + b over rank-2 inputs [N, in_features].
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Linear"; }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;
  bool has_cached_input_ = false;
};

}  // namespace dcn
