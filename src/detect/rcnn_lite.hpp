// Two-stage region-proposal baseline ("R-CNN lite").
//
// Stands in for the Faster R-CNN reference of §8.1: stage one proposes
// candidate regions from a class-agnostic spectral heuristic (co-located
// road-gray and dark-NIR water responses); stage two scores each
// variable-size proposal crop with a trained SPP-Net — showcasing SPP's
// arbitrary-input-size property the way R-CNN scores warped proposals.
#pragma once

#include <array>
#include <vector>

#include "detect/sppnet.hpp"
#include "tensor/tensor.hpp"

namespace dcn::detect {

struct Proposal {
  std::array<float, 4> box{};  // (cx, cy, w, h) normalized
  float objectness = 0.0f;     // heuristic score
};

/// Stage one: propose up to 8 regions in a [4, H, W] patch. Windows are
/// 0.22 of the patch side, and greedy non-maximum suppression drops a
/// window whose center lies within 0.18 of the patch side of a kept one.
std::vector<Proposal> propose_regions(const Tensor& image);

/// Two-stage detector: proposals scored by an SPP-Net.
class RcnnLiteDetector {
 public:
  explicit RcnnLiteDetector(SppNet& scorer) : scorer_(&scorer) {}

  /// Best detection for one [4, H, W] image: the proposal with the highest
  /// rescored confidence (confidence 0 if no proposals).
  Prediction detect(const Tensor& image);

 private:
  SppNet* scorer_;
};

}  // namespace dcn::detect
