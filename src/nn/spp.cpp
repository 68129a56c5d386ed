#include "nn/spp.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace dcn {
namespace {

// The pyramid layout: pool(i) -> [N, C, l_i, l_i] for each level l_i,
// flattened and concatenated per sample in level order.
template <typename PoolLevel>
Tensor concat_levels(const Tensor& input,
                     const std::vector<std::int64_t>& levels,
                     const PoolLevel& pool) {
  DCN_CHECK(input.rank() == 4) << "SPP expects NCHW, got "
                               << input.shape().to_string();
  const std::int64_t batch = input.dim(0);
  const std::int64_t channels = input.dim(1);
  std::int64_t total = 0;
  for (std::int64_t l : levels) total += channels * l * l;
  Tensor output(Shape{batch, total});
  std::int64_t offset = 0;
  for (std::size_t b = 0; b < levels.size(); ++b) {
    const Tensor pooled = pool(b);
    const std::int64_t feat = channels * levels[b] * levels[b];
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* src = pooled.data() + n * feat;
      std::copy(src, src + feat, output.data() + n * total + offset);
    }
    offset += feat;
  }
  return output;
}

}  // namespace

Tensor spp_forward(const Tensor& input,
                   const std::vector<std::int64_t>& levels) {
  DCN_CHECK(!levels.empty()) << "SPP needs at least one pyramid level";
  return concat_levels(input, levels, [&](std::size_t b) {
    return adaptive_max_pool2d(input, levels[b], levels[b]);
  });
}

std::vector<std::int64_t> spp_levels_from_first(std::int64_t first_level) {
  DCN_CHECK(first_level >= 1) << "SPP first level must be >= 1";
  std::vector<std::int64_t> levels{first_level};
  if (first_level > 2) levels.push_back(2);
  if (first_level > 1) levels.push_back(1);
  return levels;
}

SpatialPyramidPool::SpatialPyramidPool(std::vector<std::int64_t> levels)
    : levels_(std::move(levels)) {
  DCN_CHECK(!levels_.empty()) << "SPP needs at least one pyramid level";
  for (std::int64_t l : levels_) {
    DCN_CHECK(l >= 1) << "SPP level " << l << " must be >= 1";
    pools_.push_back(std::make_unique<AdaptiveMaxPool2d>(l, l));
  }
}

std::int64_t SpatialPyramidPool::features_per_channel() const {
  std::int64_t n = 0;
  for (std::int64_t l : levels_) n += l * l;
  return n;
}

Tensor SpatialPyramidPool::forward(const Tensor& input) {
  Tensor output = concat_levels(input, levels_, [&](std::size_t b) {
    return pools_[b]->forward(input);
  });
  input_shape_ = input.shape();
  return output;
}

Tensor SpatialPyramidPool::backward(const Tensor& grad_output) {
  DCN_CHECK(input_shape_.rank() == 4) << "SPP::backward without forward";
  const std::int64_t batch = input_shape_.dim(0);
  const std::int64_t channels = input_shape_.dim(1);
  DCN_CHECK(grad_output.shape() ==
            Shape({batch, output_features(channels)}))
      << "SPP grad shape " << grad_output.shape().to_string();

  Tensor grad_input(input_shape_);
  std::int64_t offset = 0;
  for (std::size_t b = 0; b < pools_.size(); ++b) {
    const std::int64_t l = levels_[b];
    const std::int64_t feat = channels * l * l;
    Tensor branch_grad(Shape{batch, channels, l, l});
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* src =
          grad_output.data() + n * output_features(channels) + offset;
      float* dst = branch_grad.data() + n * feat;
      for (std::int64_t i = 0; i < feat; ++i) dst[i] = src[i];
    }
    const Tensor gi = pools_[b]->backward(branch_grad);
    for (std::int64_t i = 0; i < grad_input.numel(); ++i) {
      grad_input[i] += gi[i];
    }
    offset += feat;
  }
  return grad_input;
}

}  // namespace dcn
