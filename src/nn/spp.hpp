// Spatial Pyramid Pooling layer (He et al. 2015).
//
// The SPP layer maps an NCHW feature map of *any* spatial size to a fixed
// [N, C * sum(level_i^2)] vector by adaptive-max-pooling to each pyramid
// level and concatenating the flattened results. The paper's SPP_{l,2,1}
// notation denotes the pyramid {l, 2, 1}; the NAS search space varies only
// the first (finest) level. The per-level pools form parallel branches —
// exactly the branched block structure IOS parallelizes.
#pragma once

#include <memory>
#include <vector>

#include "nn/module.hpp"
#include "nn/pool.hpp"

namespace dcn {

class SpatialPyramidPool : public Module {
 public:
  /// `levels` are the pyramid grid sizes, e.g. {4, 2, 1}.
  explicit SpatialPyramidPool(std::vector<std::int64_t> levels);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "SPP"; }

  const std::vector<std::int64_t>& levels() const { return levels_; }

  /// Output features per input channel: sum of level^2.
  std::int64_t features_per_channel() const;

  /// Total output features for `channels` input channels.
  std::int64_t output_features(std::int64_t channels) const {
    return channels * features_per_channel();
  }

 private:
  std::vector<std::int64_t> levels_;
  std::vector<std::unique_ptr<AdaptiveMaxPool2d>> pools_;
  Shape input_shape_;
};

/// The inference pyramid: `input` [N, C, H, W] adaptive-max-pooled to each
/// level's l x l grid with no argmax (adaptive_max_pool2d) and concatenated
/// per sample in level order -> [N, C * sum(l^2)], the layout
/// SpatialPyramidPool::forward produces.
Tensor spp_forward(const Tensor& input,
                   const std::vector<std::int64_t>& levels);

/// The paper's pyramid convention: first level L plus fixed coarse levels
/// {2, 1}; L in {1..5} per the NAS search space. L <= 2 degenerates to the
/// unique levels {2, 1} or {1} accordingly (duplicates are kept distinct —
/// they are distinct branches at runtime, matching the reference model).
std::vector<std::int64_t> spp_levels_from_first(std::int64_t first_level);

}  // namespace dcn
