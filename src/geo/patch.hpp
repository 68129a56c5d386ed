// Patch clipping with bounding-box labels.
//
// Mirrors the paper's preprocessing (§3.2): square patches are clipped
// around drainage-crossing locations (with jitter so the object is not
// always dead-center), and negative patches are sampled away from any
// crossing. Boxes are (cx, cy, w, h) normalized to [0, 1] patch coordinates.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geo/crossings.hpp"
#include "geo/render.hpp"
#include "tensor/tensor.hpp"

namespace dcn {
class Rng;
}

namespace dcn::geo {

/// One training/evaluation sample.
struct PatchSample {
  Tensor image;                      // [4, size, size], values in [0, 1]
  float label = 0.0f;                // 1 = contains a drainage crossing
  std::array<float, 4> box{};        // (cx, cy, w, h) normalized; zeros if negative
};

/// Clip a [4(+1), size, size] tensor centered at (center_r, center_c);
/// areas outside the photo are edge-clamped (patches near the boundary stay
/// valid). When `extra_band` is non-null it is appended as a fifth channel
/// (e.g. a DEM hillshade, as in HRDEM-based crossing detection).
Tensor clip_patch(const Orthophoto& photo, std::int64_t center_r,
                  std::int64_t center_c, std::int64_t size,
                  const Raster* extra_band = nullptr);

/// Positive sample: patch around `crossing` with the center jittered up to
/// `max_jitter` cells in each axis; the box tracks the true object location.
PatchSample make_positive(const Orthophoto& photo, const Crossing& crossing,
                          std::int64_t size, std::int64_t max_jitter,
                          Rng& rng, const Raster* extra_band = nullptr);

/// Negative sample: random patch whose center is at least `min_distance`
/// cells from every crossing. Returns false if no location was found after
/// `max_tries` attempts.
bool make_negative(const Orthophoto& photo,
                   const std::vector<Crossing>& crossings, std::int64_t size,
                   std::int64_t min_distance, Rng& rng, PatchSample& out,
                   int max_tries = 64, const Raster* extra_band = nullptr);

/// Horizontal / vertical flips for augmentation (box is remapped).
PatchSample flip_horizontal(const PatchSample& sample);
PatchSample flip_vertical(const PatchSample& sample);

}  // namespace dcn::geo
