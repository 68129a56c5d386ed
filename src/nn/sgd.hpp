// Stochastic gradient descent with momentum and weight decay.
//
// Hyper-parameters default to the paper's training setup (§6.1):
// lr = 0.005, weight decay = 0.0005, momentum = 0.9.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace dcn {

struct SgdConfig {
  double learning_rate = 0.005;
  double momentum = 0.9;
  double weight_decay = 0.0005;
};

/// PyTorch-convention SGD: v = mu*v + (g + wd*p); p -= lr * v.
class Sgd {
 public:
  Sgd(std::vector<ParamRef> params, SgdConfig config);

  /// Apply one update from the accumulated gradients.
  void step();

  /// Zero all parameter gradients.
  void zero_grad();

  /// Global L2 norm of all gradients (diagnostic).
  double grad_norm() const;

  SgdConfig& config() { return config_; }
  const SgdConfig& config() const { return config_; }

 private:
  std::vector<ParamRef> params_;
  std::vector<Tensor> velocity_;
  SgdConfig config_;
};

}  // namespace dcn
