#include "detect/calibration.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dcn::detect {

void RangeObserver::observe(const float* values, std::int64_t count) {
  DCN_CHECK(count >= 0) << "observe count " << count;
  for (std::int64_t i = 0; i < count; ++i) {
    const float v = values[i];
    if (count_ == 0 && i == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
  }
  count_ += count;
}

float RangeObserver::min_value() const {
  DCN_CHECK(count_ > 0) << "empty RangeObserver";
  return min_;
}

float RangeObserver::max_value() const {
  DCN_CHECK(count_ > 0) << "empty RangeObserver";
  return max_;
}

QuantParams RangeObserver::quant_params() const {
  return choose_quant_params(min_value(), max_value());
}

std::vector<std::int64_t> calibration_split(std::int64_t dataset_size,
                                            std::int64_t max_images,
                                            std::uint64_t seed) {
  DCN_CHECK(dataset_size >= 0) << "dataset_size " << dataset_size;
  DCN_CHECK(max_images >= 0) << "max_images " << max_images;
  std::int64_t take = dataset_size;
  if (max_images > 0) take = std::min(take, max_images);
  std::vector<std::int64_t> indices;
  indices.reserve(static_cast<std::size_t>(take));
  if (take == dataset_size) {
    for (std::int64_t i = 0; i < dataset_size; ++i) indices.push_back(i);
    return indices;
  }
  Rng rng(seed);
  const std::vector<std::size_t> perm =
      rng.permutation(static_cast<std::size_t>(dataset_size));
  for (std::int64_t i = 0; i < take; ++i) {
    indices.push_back(static_cast<std::int64_t>(perm[static_cast<std::size_t>(i)]));
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace dcn::detect
