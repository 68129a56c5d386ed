// Output checks. Each guards against one fault: a flipped output bit, a
// shifted stage-1 threshold, a perturbed weight.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/sppnet.hpp"
#include "tensor/tensor.hpp"

namespace hostbench {

/// Same shape and the same bytes.
bool bitwise_equal(const dcn::Tensor& a, const dcn::Tensor& b);

/// Every decoded confidence finite and within [0, 1], every box finite.
bool predictions_valid(const std::vector<dcn::detect::Prediction>& preds);

/// Flips the lowest mantissa bit of t[index].
void flip_bit(dcn::Tensor& t, std::int64_t index);
float flip_bit(float value);

/// Stage-1 cut that lets `share` of the tiles through: the threshold is the
/// ceil(share * n)-th highest confidence and `target` counts the
/// confidences at or above it (more than ceil(share * n) only on a tie).
struct SurvivorCut {
  float threshold = 0.0f;
  std::int64_t target = 0;
};
SurvivorCut survivor_cut(std::vector<float> confidences, double share);

}  // namespace hostbench
