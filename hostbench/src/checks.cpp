#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "core/error.hpp"

namespace hostbench {

bool bitwise_equal(const dcn::Tensor& a, const dcn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

bool predictions_valid(const std::vector<dcn::detect::Prediction>& preds) {
  for (const dcn::detect::Prediction& p : preds) {
    if (!std::isfinite(p.confidence) || p.confidence < 0.0f ||
        p.confidence > 1.0f) {
      return false;
    }
    for (const float v : p.box) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

float flip_bit(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&value, &bits, sizeof(bits));
  return value;
}

void flip_bit(dcn::Tensor& t, std::int64_t index) {
  t[index] = flip_bit(t[index]);
}

SurvivorCut survivor_cut(std::vector<float> confidences, double share) {
  DCN_CHECK(!confidences.empty()) << "survivor cut over no tiles";
  std::sort(confidences.begin(), confidences.end(), std::greater<float>());
  const auto n = static_cast<std::int64_t>(confidences.size());
  const std::int64_t keep = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::ceil(share * static_cast<double>(n))),
      1, n);
  SurvivorCut cut;
  cut.threshold = confidences[static_cast<std::size_t>(keep - 1)];
  cut.target = static_cast<std::int64_t>(
      std::count_if(confidences.begin(), confidences.end(),
                    [&](float c) { return c >= cut.threshold; }));
  return cut;
}

}  // namespace hostbench
