// Tests for loss functions, including finite-difference gradient checks.
#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dcn {
namespace {

// Central finite differences on an arbitrary scalar loss of one tensor.
void check_grad(const std::function<LossResult(const Tensor&)>& loss,
                Tensor at, double tol = 2e-2) {
  const LossResult base = loss(at);
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < at.numel(); ++i) {
    const float saved = at[i];
    at[i] = saved + static_cast<float>(eps);
    const double lp = loss(at).value;
    at[i] = saved - static_cast<float>(eps);
    const double lm = loss(at).value;
    at[i] = saved;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(base.grad[i], numeric,
                tol * std::max(1.0, std::abs(numeric)))
        << "entry " << i;
  }
}

TEST(BceWithLogits, KnownValues) {
  Tensor logits(Shape{2});
  logits[0] = 0.0f;
  logits[1] = 0.0f;
  Tensor targets(Shape{2});
  targets[0] = 1.0f;
  targets[1] = 0.0f;
  const LossResult res = bce_with_logits(logits, targets);
  // BCE at logit 0 is ln(2) regardless of target.
  EXPECT_NEAR(res.value, std::log(2.0), 1e-6);
  EXPECT_NEAR(res.grad[0], (0.5 - 1.0) / 2.0, 1e-6);
  EXPECT_NEAR(res.grad[1], (0.5 - 0.0) / 2.0, 1e-6);
}

TEST(BceWithLogits, ConfidentCorrectIsCheap) {
  Tensor logits(Shape{1});
  logits[0] = 10.0f;
  Tensor targets(Shape{1}, 1.0f);
  EXPECT_LT(bce_with_logits(logits, targets).value, 1e-4);
}

TEST(BceWithLogits, StableAtExtremeLogits) {
  Tensor logits(Shape{2});
  logits[0] = 500.0f;
  logits[1] = -500.0f;
  Tensor targets(Shape{2});
  targets[0] = 0.0f;
  targets[1] = 1.0f;
  const LossResult res = bce_with_logits(logits, targets);
  EXPECT_FALSE(std::isnan(res.value));
  EXPECT_FALSE(std::isinf(res.value));
  EXPECT_NEAR(res.value, 500.0, 1.0);  // ~|logit| for a confident mistake
}

TEST(BceWithLogits, GradientMatchesFiniteDifferences) {
  Rng rng(3);
  Tensor logits(Shape{6});
  logits.fill_normal(rng, 0.0f, 2.0f);
  Tensor targets(Shape{6});
  for (std::int64_t i = 0; i < 6; ++i) {
    targets[i] = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  }
  check_grad(
      [&](const Tensor& x) { return bce_with_logits(x, targets); }, logits);
}

TEST(SmoothL1, QuadraticInsideLinearOutside) {
  Tensor pred(Shape{1, 2});
  pred[0] = 0.5f;   // |d| < 1: quadratic, 0.5*0.25
  pred[1] = 3.0f;   // |d| > 1: linear, 3 - 0.5
  Tensor target(Shape{1, 2});
  Tensor mask(Shape{1}, 1.0f);
  const LossResult res = smooth_l1(pred, target, mask);
  EXPECT_NEAR(res.value, 0.5 * 0.25 + 2.5, 1e-6);
  EXPECT_NEAR(res.grad[0], 0.5, 1e-6);
  EXPECT_NEAR(res.grad[1], 1.0, 1e-6);
}

TEST(SmoothL1, MaskedRowsContributeNothing) {
  Tensor pred(Shape{2, 2}, 5.0f);
  Tensor target(Shape{2, 2});
  Tensor mask(Shape{2});
  mask[0] = 1.0f;  // row 1 masked out
  const LossResult res = smooth_l1(pred, target, mask);
  EXPECT_EQ(res.grad[2], 0.0f);
  EXPECT_EQ(res.grad[3], 0.0f);
  // Normalized by one active row.
  EXPECT_NEAR(res.value, 2 * 4.5, 1e-6);
}

TEST(SmoothL1, AllMaskedIsZero) {
  Tensor pred(Shape{2, 2}, 5.0f);
  Tensor target(Shape{2, 2});
  Tensor mask(Shape{2});
  const LossResult res = smooth_l1(pred, target, mask);
  EXPECT_EQ(res.value, 0.0);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(res.grad[i], 0.0f);
}

TEST(SmoothL1, GradientMatchesFiniteDifferences) {
  Rng rng(5);
  Tensor pred(Shape{3, 4});
  pred.fill_normal(rng, 0.0f, 1.5f);
  Tensor target(Shape{3, 4});
  target.fill_normal(rng, 0.0f, 1.0f);
  Tensor mask(Shape{3});
  mask[0] = 1.0f;
  mask[2] = 1.0f;
  check_grad(
      [&](const Tensor& x) { return smooth_l1(x, target, mask); }, pred);
}

TEST(DetectionLoss, AssemblesClassificationAndBoxTerms) {
  Tensor head(Shape{2, 5});
  // Sample 0: positive, perfect box.
  head[0] = 8.0f;  // confident positive logit
  head[1] = 0.5f;
  head[2] = 0.5f;
  head[3] = 0.2f;
  head[4] = 0.2f;
  // Sample 1: negative, box outputs arbitrary.
  head[5] = -8.0f;
  head[6] = 0.9f;
  head[7] = 0.9f;
  head[8] = 0.9f;
  head[9] = 0.9f;
  Tensor labels(Shape{2});
  labels[0] = 1.0f;
  Tensor boxes(Shape{2, 4});
  boxes[0] = 0.5f;
  boxes[1] = 0.5f;
  boxes[2] = 0.2f;
  boxes[3] = 0.2f;
  const LossResult res = detection_loss(head, labels, boxes, 1.0);
  EXPECT_LT(res.value, 1e-3);  // everything is already correct
  // Negative sample's box outputs receive no box gradient.
  for (std::int64_t c = 1; c < 5; ++c) EXPECT_EQ(res.grad[5 + c], 0.0f);
}

TEST(DetectionLoss, BoxWeightScalesBoxGradient) {
  Rng rng(7);
  Tensor head(Shape{1, 5});
  head.fill_normal(rng, 0.0f, 1.0f);
  Tensor labels(Shape{1}, 1.0f);
  Tensor boxes(Shape{1, 4}, 0.5f);
  const LossResult w1 = detection_loss(head, labels, boxes, 1.0);
  const LossResult w3 = detection_loss(head, labels, boxes, 3.0);
  for (std::int64_t c = 1; c < 5; ++c) {
    EXPECT_NEAR(w3.grad[c], 3.0f * w1.grad[c], 1e-6f);
  }
  // Objectness gradient is unaffected by the box weight.
  EXPECT_NEAR(w3.grad[0], w1.grad[0], 1e-7f);
}

TEST(DetectionLoss, GradientMatchesFiniteDifferences) {
  Rng rng(11);
  Tensor head(Shape{4, 5});
  head.fill_normal(rng, 0.0f, 1.0f);
  Tensor labels(Shape{4});
  labels[0] = 1.0f;
  labels[2] = 1.0f;
  Tensor boxes(Shape{4, 4});
  boxes.fill_uniform(rng, 0.1f, 0.9f);
  check_grad(
      [&](const Tensor& x) { return detection_loss(x, labels, boxes, 2.0); },
      head);
}

TEST(DetectionLoss, ValidatesShapes) {
  Tensor head(Shape{2, 4});  // wrong: needs 5 columns
  Tensor labels(Shape{2});
  Tensor boxes(Shape{2, 4});
  EXPECT_THROW(detection_loss(head, labels, boxes), Error);
}

}  // namespace
}  // namespace dcn
