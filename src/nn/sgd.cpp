#include "nn/sgd.hpp"

#include <cmath>

#include "core/error.hpp"

namespace dcn {

Sgd::Sgd(std::vector<ParamRef> params, SgdConfig config)
    : params_(std::move(params)), config_(config) {
  DCN_CHECK(config_.learning_rate > 0.0) << "learning rate must be positive";
  DCN_CHECK(config_.momentum >= 0.0 && config_.momentum < 1.0)
      << "momentum out of range";
  velocity_.reserve(params_.size());
  for (const ParamRef& p : params_) {
    DCN_CHECK(p.value != nullptr && p.grad != nullptr)
        << "parameter '" << p.name << "' missing value/grad";
    DCN_CHECK(p.value->shape() == p.grad->shape())
        << "parameter '" << p.name << "' grad shape mismatch";
    velocity_.emplace_back(p.value->shape());
  }
}

double Sgd::grad_norm() const {
  double acc = 0.0;
  for (const ParamRef& p : params_) {
    const std::int64_t n = p.grad->numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const double g = (*p.grad)[i];
      acc += g * g;
    }
  }
  return std::sqrt(acc);
}

void Sgd::step() {
  const float lr = static_cast<float>(config_.learning_rate);
  const float mu = static_cast<float>(config_.momentum);
  const float wd = static_cast<float>(config_.weight_decay);
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Tensor& p = *params_[k].value;
    Tensor& g = *params_[k].grad;
    Tensor& v = velocity_[k];
    const std::int64_t n = p.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const float grad = g[i] + wd * p[i];
      v[i] = mu * v[i] + grad;
      p[i] -= lr * v[i];
    }
  }
}

void Sgd::zero_grad() {
  for (const ParamRef& p : params_) p.grad->zero();
}

}  // namespace dcn
