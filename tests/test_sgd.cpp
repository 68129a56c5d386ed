// Tests for the SGD optimizer (momentum, weight decay).
#include "nn/sgd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"

namespace dcn {
namespace {

struct Param {
  Tensor value;
  Tensor grad;
  Param(float v, float g) : value(Shape{1}, v), grad(Shape{1}, g) {}
  ParamRef ref() { return {"p", &value, &grad}; }
};

TEST(Sgd, VanillaStep) {
  Param p(1.0f, 0.5f);
  SgdConfig config;
  config.learning_rate = 0.1;
  config.momentum = 0.0;
  config.weight_decay = 0.0;
  Sgd opt({p.ref()}, config);
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.1f * 0.5f, 1e-7f);
}

TEST(Sgd, WeightDecayAddsToGradient) {
  Param p(2.0f, 0.0f);
  SgdConfig config;
  config.learning_rate = 0.1;
  config.momentum = 0.0;
  config.weight_decay = 0.5;
  Sgd opt({p.ref()}, config);
  opt.step();
  // effective grad = 0 + 0.5 * 2 = 1; p -= 0.1 * 1
  EXPECT_NEAR(p.value[0], 1.9f, 1e-7f);
}

TEST(Sgd, MomentumAccumulates) {
  Param p(0.0f, 1.0f);
  SgdConfig config;
  config.learning_rate = 1.0;
  config.momentum = 0.5;
  config.weight_decay = 0.0;
  Sgd opt({p.ref()}, config);
  opt.step();  // v = 1,   p = -1
  EXPECT_NEAR(p.value[0], -1.0f, 1e-7f);
  opt.step();  // v = 1.5, p = -2.5
  EXPECT_NEAR(p.value[0], -2.5f, 1e-7f);
  opt.step();  // v = 1.75, p = -4.25
  EXPECT_NEAR(p.value[0], -4.25f, 1e-7f);
}

TEST(Sgd, PaperDefaults) {
  Param p(0.0f, 0.0f);
  Sgd opt({p.ref()}, SgdConfig{});
  EXPECT_DOUBLE_EQ(opt.config().learning_rate, 0.005);
  EXPECT_DOUBLE_EQ(opt.config().momentum, 0.9);
  EXPECT_DOUBLE_EQ(opt.config().weight_decay, 0.0005);
}

TEST(Sgd, GradNorm) {
  Param a(0.0f, 3.0f);
  Param b(0.0f, 4.0f);
  Sgd opt({a.ref(), b.ref()}, SgdConfig{});
  EXPECT_NEAR(opt.grad_norm(), 5.0, 1e-6);
}

TEST(Sgd, ZeroGradClears) {
  Param p(0.0f, 7.0f);
  Sgd opt({p.ref()}, SgdConfig{});
  opt.zero_grad();
  EXPECT_EQ(p.grad[0], 0.0f);
}

TEST(Sgd, RejectsBadConfig) {
  Param p(0.0f, 0.0f);
  SgdConfig config;
  config.learning_rate = 0.0;
  EXPECT_THROW(Sgd({p.ref()}, config), Error);
  config.learning_rate = 0.1;
  config.momentum = 1.0;
  EXPECT_THROW(Sgd({p.ref()}, config), Error);
}

TEST(Sgd, RejectsMismatchedGradShape) {
  Tensor value(Shape{2});
  Tensor grad(Shape{3});
  EXPECT_THROW(Sgd({{"p", &value, &grad}}, SgdConfig{}), Error);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2 with grad 2(x - 3).
  Param p(0.0f, 0.0f);
  SgdConfig config;
  config.learning_rate = 0.1;
  config.momentum = 0.9;
  config.weight_decay = 0.0;
  Sgd opt({p.ref()}, config);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2f);
}

}  // namespace
}  // namespace dcn
