// Max pooling (fixed-window and adaptive): the layer modules and the one
// forward of each that every inference path runs.
//
// Adaptive pooling uses PyTorch's bin convention
// (start = floor(i*H/out), end = ceil((i+1)*H/out)) so the SPP layer's
// fixed-size output is produced for any input spatial size — the property
// the paper relies on for variable-sized orthophoto patches.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace dcn {

/// Max over square `kernel` windows at `stride`, no padding:
/// [N, C, H, W] -> [N, C, (H-k)/s+1, (W-k)/s+1]. When `argmax` is set it is
/// resized to the output's size and receives each output's flat input index,
/// which backward routes the gradient through; inference passes none. The
/// N*C planes spread over the compute pool in a split set by the shape
/// alone, so the output and argmax are bit-identical at any thread count.
Tensor max_pool2d(const Tensor& input, std::int64_t kernel,
                  std::int64_t stride,
                  std::vector<std::int64_t>* argmax = nullptr);

/// Max over the bins of an out_h x out_w grid: [N, C, H, W] ->
/// [N, C, out_h, out_w]; `argmax` as for max_pool2d.
Tensor adaptive_max_pool2d(const Tensor& input, std::int64_t out_h,
                           std::int64_t out_w,
                           std::vector<std::int64_t>* argmax = nullptr);

/// MaxPool2d with square kernel and stride (paper's P_{size,stride}).
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::int64_t kernel_size, std::int64_t stride);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

  std::int64_t kernel_size() const { return kernel_size_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::int64_t kernel_size_;
  std::int64_t stride_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

/// Adaptive max pool to a fixed out_h x out_w grid.
class AdaptiveMaxPool2d : public Module {
 public:
  AdaptiveMaxPool2d(std::int64_t out_h, std::int64_t out_w);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "AdaptiveMaxPool2d"; }

  std::int64_t out_h() const { return out_h_; }
  std::int64_t out_w() const { return out_w_; }

 private:
  std::int64_t out_h_;
  std::int64_t out_w_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;
};

}  // namespace dcn
