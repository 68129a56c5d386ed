// Neural-network module abstraction.
//
// Modules implement an explicit forward/backward pair (layer-wise
// backpropagation rather than a general autograd tape): forward caches
// whatever its backward needs, backward accumulates parameter gradients and
// returns the gradient with respect to its input. This matches the strictly
// feed-forward SPP-Net topology of the paper and keeps memory behaviour
// predictable on CPU.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dcn {

/// Non-owning handle to one learnable parameter and its gradient buffer.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Base class for all layers.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Compute the layer output; must be called before backward.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dL/d(output), accumulate parameter grads and return dL/d(input).
  /// Requires a preceding forward with the matching input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> parameters() { return {}; }

  /// Layer type name for diagnostics ("Conv2d", "SPP", ...).
  virtual std::string name() const = 0;

  /// Toggle training mode. Dropout draws masks and SppNet keeps backward
  /// state only in training mode.
  virtual void set_training(bool training) { training_ = training; }
  bool is_training() const { return training_; }

  /// Zero all parameter gradients.
  void zero_grad();

  /// Total number of learnable scalars.
  std::int64_t num_parameters();

 protected:
  bool training_ = true;
};

}  // namespace dcn
