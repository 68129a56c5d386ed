#include "nn/activations.hpp"

#include "core/error.hpp"

namespace dcn {

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  has_cached_input_ = true;
  Tensor out(input.shape());
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = input[i] > 0.0f ? input[i] : 0.0f;
  }
  return out;
}

// The gradient passes where the pre-activation was positive; the
// subgradient at 0 is 0.
Tensor ReLU::backward(const Tensor& grad_output) {
  DCN_CHECK(has_cached_input_) << "ReLU::backward without forward";
  DCN_CHECK(grad_output.shape() == cached_input_.shape())
      << "ReLU::backward shape mismatch " << grad_output.shape().to_string()
      << " vs " << cached_input_.shape().to_string();
  Tensor grad_input(cached_input_.shape());
  const std::int64_t n = grad_input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    grad_input[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input) {
  DCN_CHECK(input.rank() >= 2) << "Flatten expects rank >= 2";
  input_shape_ = input.shape();
  const std::int64_t batch = input.dim(0);
  return input.reshaped(Shape{batch, input.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  DCN_CHECK(input_shape_.rank() > 0) << "Flatten::backward without forward";
  return grad_output.reshaped(input_shape_);
}

}  // namespace dcn
