// 2-D convolution (NCHW), lowered onto im2col + GEMM: the layer module and
// the one fp32 and one int8 forward that every inference path runs.
#pragma once

#include "nn/module.hpp"
#include "tensor/quantize.hpp"

namespace dcn {

class Rng;

/// The fp32 convolution: `input` [N, C, H, W] through `weight`
/// [out_c, C, k, k] at `stride` and `padding`, plus `bias` [out_c] and, when
/// `relu`, a ReLU; returns [N, out_c, OH, OW]. Each sample lowers to im2col +
/// sgemm_ex with bias and ReLU fused into the GEMM's epilogue, and samples
/// spread over the compute pool (for_each_sample), so the output is
/// bit-identical at any thread count.
Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const float* bias, std::int64_t stride,
                      std::int64_t padding, bool relu);

/// The int8 convolution: the same lowering with each sample's float columns
/// quantized by `input_params` (padding taps are exact 0.0f, which lands on
/// the integer zero point) and multiplied by qgemm against the symmetric
/// int8 `weights` [out_c, C*kernel*kernel]; dequantize, `bias` and ReLU are
/// fused into the store.
Tensor conv2d_forward_int8(const Tensor& input,
                           const QuantizedWeights& weights, const float* bias,
                           const QuantParams& input_params,
                           std::int64_t kernel, std::int64_t stride,
                           std::int64_t padding, bool relu);

/// Convolution over NCHW inputs. Matches the paper's C_{filters,size,stride}
/// notation; padding defaults to "same-ish" (kernel/2) like the reference
/// implementation so spatial size is preserved for stride 1.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel_size, std::int64_t stride, std::int64_t padding,
         Rng& rng);

  /// Convenience: padding = kernel_size / 2.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel_size, std::int64_t stride, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  std::string name() const override { return "Conv2d"; }

  /// Output spatial size for a given input height/width.
  std::pair<std::int64_t, std::int64_t> output_hw(std::int64_t h,
                                                  std::int64_t w) const;

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel_size() const { return kernel_size_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t padding() const { return padding_; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_size_;
  std::int64_t stride_;
  std::int64_t padding_;

  Tensor weight_;       // [out_c, in_c, k, k]
  Tensor bias_;         // [out_c]
  Tensor weight_grad_;  // same shape as weight_
  Tensor bias_grad_;    // same shape as bias_

  // Per-chunk weight/bias gradient partials for the deterministic parallel
  // backward pass; retained between steps to avoid per-call allocation.
  std::vector<float> grad_scratch_;

  Tensor cached_input_;  // saved by forward for the backward pass
  bool has_cached_input_ = false;
};

}  // namespace dcn
