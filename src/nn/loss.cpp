#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace dcn {

LossResult bce_with_logits(const Tensor& logits, const Tensor& targets) {
  DCN_CHECK(logits.shape() == targets.shape())
      << "bce shapes " << logits.shape().to_string() << " vs "
      << targets.shape().to_string();
  const std::int64_t n = logits.numel();
  DCN_CHECK(n > 0) << "bce over empty batch";
  LossResult res;
  res.grad = Tensor(logits.shape());
  double total = 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const double x = logits[i];
    const double t = targets[i];
    // log(1 + e^{-|x|}) formulation is stable for both signs.
    const double loss = std::max(x, 0.0) - x * t + std::log1p(std::exp(-std::abs(x)));
    total += loss;
    const double sig = 1.0 / (1.0 + std::exp(-x));
    res.grad[i] = static_cast<float>((sig - t) * inv_n);
  }
  res.value = total * inv_n;
  return res;
}

LossResult smooth_l1(const Tensor& pred, const Tensor& target,
                     const Tensor& mask) {
  DCN_CHECK(pred.shape() == target.shape()) << "smooth_l1 shapes";
  DCN_CHECK(pred.rank() == 2) << "smooth_l1 expects [N, D]";
  const std::int64_t rows = pred.dim(0);
  const std::int64_t cols = pred.dim(1);
  DCN_CHECK(mask.numel() == rows) << "smooth_l1 mask length";

  double active = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) active += mask[r] != 0.0f ? 1.0 : 0.0;
  const double denom = active > 0.0 ? active : 1.0;

  LossResult res;
  res.grad = Tensor(pred.shape());
  double total = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    if (mask[r] == 0.0f) continue;
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int64_t i = r * cols + c;
      const double d = static_cast<double>(pred[i]) - target[i];
      if (std::abs(d) < 1.0) {
        total += 0.5 * d * d;
        res.grad[i] = static_cast<float>(d / denom);
      } else {
        total += std::abs(d) - 0.5;
        res.grad[i] = static_cast<float>((d > 0 ? 1.0 : -1.0) / denom);
      }
    }
  }
  res.value = total / denom;
  return res;
}

LossResult detection_loss(const Tensor& head_out, const Tensor& labels,
                          const Tensor& boxes, double box_weight) {
  DCN_CHECK(head_out.rank() == 2 && head_out.dim(1) == 5)
      << "detection head must be [N, 5], got "
      << head_out.shape().to_string();
  const std::int64_t n = head_out.dim(0);
  DCN_CHECK(labels.numel() == n) << "labels length";
  DCN_CHECK(boxes.shape() == Shape({n, 4})) << "boxes shape";

  Tensor logits(Shape{n});
  Tensor box_pred(Shape{n, 4});
  for (std::int64_t i = 0; i < n; ++i) {
    logits[i] = head_out[i * 5];
    for (std::int64_t c = 0; c < 4; ++c) {
      box_pred[i * 4 + c] = head_out[i * 5 + 1 + c];
    }
  }

  const LossResult cls = bce_with_logits(logits, labels);
  const LossResult box = smooth_l1(box_pred, boxes, labels);

  LossResult res;
  res.value = cls.value + box_weight * box.value;
  res.grad = Tensor(head_out.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    res.grad[i * 5] = cls.grad[i];
    for (std::int64_t c = 0; c < 4; ++c) {
      res.grad[i * 5 + 1 + c] =
          static_cast<float>(box_weight) * box.grad[i * 4 + c];
    }
  }
  return res;
}

}  // namespace dcn
