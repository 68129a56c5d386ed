#include "geo/patch.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dcn::geo {

Tensor clip_patch(const Orthophoto& photo, std::int64_t center_r,
                  std::int64_t center_c, std::int64_t size,
                  const Raster* extra_band) {
  DCN_CHECK(size > 0) << "patch size";
  const std::int64_t channels = extra_band != nullptr ? 5 : 4;
  Tensor patch(Shape{channels, size, size});
  const std::int64_t r0 = center_r - size / 2;
  const std::int64_t c0 = center_c - size / 2;
  for (std::int64_t b = 0; b < channels; ++b) {
    const Raster& band = b < 4 ? photo.bands[static_cast<std::size_t>(b)]
                               : *extra_band;
    float* dst = patch.data() + b * size * size;
    for (std::int64_t r = 0; r < size; ++r) {
      for (std::int64_t c = 0; c < size; ++c) {
        dst[r * size + c] = band.at_clamped(r0 + r, c0 + c);
      }
    }
  }
  return patch;
}

PatchSample make_positive(const Orthophoto& photo, const Crossing& crossing,
                          std::int64_t size, std::int64_t max_jitter,
                          Rng& rng, const Raster* extra_band) {
  const std::int64_t jr = rng.uniform_int(-max_jitter, max_jitter);
  const std::int64_t jc = rng.uniform_int(-max_jitter, max_jitter);
  const std::int64_t center_r = crossing.row + jr;
  const std::int64_t center_c = crossing.col + jc;

  PatchSample sample;
  sample.image = clip_patch(photo, center_r, center_c, size, extra_band);
  sample.label = 1.0f;
  // Object center in patch coordinates.
  const double ox = (crossing.col - (center_c - size / 2)) /
                    static_cast<double>(size);
  const double oy = (crossing.row - (center_r - size / 2)) /
                    static_cast<double>(size);
  const double extent = std::min<double>(crossing.extent, size) /
                        static_cast<double>(size);
  sample.box = {static_cast<float>(std::clamp(ox, 0.0, 1.0)),
                static_cast<float>(std::clamp(oy, 0.0, 1.0)),
                static_cast<float>(extent), static_cast<float>(extent)};
  return sample;
}

bool make_negative(const Orthophoto& photo,
                   const std::vector<Crossing>& crossings, std::int64_t size,
                   std::int64_t min_distance, Rng& rng, PatchSample& out,
                   int max_tries, const Raster* extra_band) {
  const std::int64_t rows = photo.rows();
  const std::int64_t cols = photo.cols();
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    const std::int64_t r = rng.uniform_int(size / 2, rows - 1 - size / 2);
    const std::int64_t c = rng.uniform_int(size / 2, cols - 1 - size / 2);
    bool clear = true;
    for (const Crossing& x : crossings) {
      const std::int64_t dr = x.row - r;
      const std::int64_t dc = x.col - c;
      if (dr * dr + dc * dc < min_distance * min_distance) {
        clear = false;
        break;
      }
    }
    if (!clear) continue;
    out.image = clip_patch(photo, r, c, size, extra_band);
    out.label = 0.0f;
    out.box = {0.0f, 0.0f, 0.0f, 0.0f};
    return true;
  }
  return false;
}

PatchSample flip_horizontal(const PatchSample& sample) {
  PatchSample out;
  out.label = sample.label;
  const std::int64_t channels = sample.image.dim(0);
  const std::int64_t size = sample.image.dim(1);
  out.image = Tensor(sample.image.shape());
  for (std::int64_t b = 0; b < channels; ++b) {
    const float* src = sample.image.data() + b * size * size;
    float* dst = out.image.data() + b * size * size;
    for (std::int64_t r = 0; r < size; ++r) {
      for (std::int64_t c = 0; c < size; ++c) {
        dst[r * size + c] = src[r * size + (size - 1 - c)];
      }
    }
  }
  out.box = sample.box;
  if (sample.label > 0.0f) out.box[0] = 1.0f - sample.box[0];
  return out;
}

PatchSample flip_vertical(const PatchSample& sample) {
  PatchSample out;
  out.label = sample.label;
  const std::int64_t channels = sample.image.dim(0);
  const std::int64_t size = sample.image.dim(1);
  out.image = Tensor(sample.image.shape());
  for (std::int64_t b = 0; b < channels; ++b) {
    const float* src = sample.image.data() + b * size * size;
    float* dst = out.image.data() + b * size * size;
    for (std::int64_t r = 0; r < size; ++r) {
      for (std::int64_t c = 0; c < size; ++c) {
        dst[r * size + c] = src[(size - 1 - r) * size + c];
      }
    }
  }
  out.box = sample.box;
  if (sample.label > 0.0f) out.box[1] = 1.0f - sample.box[1];
  return out;
}

}  // namespace dcn::geo
