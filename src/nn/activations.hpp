// Stateless activation layers.
#pragma once

#include "nn/module.hpp"

namespace dcn {

/// Rectified linear unit.
class ReLU : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
  bool has_cached_input_ = false;
};

/// Reshape NCHW feature maps to [N, C*H*W] (and route gradients back).
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  Shape input_shape_;
};

}  // namespace dcn
