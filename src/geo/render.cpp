#include "geo/render.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "geo/terrain.hpp"

namespace dcn::geo {
namespace {

float clamp01(double v) {
  return static_cast<float>(std::clamp(v, 0.0, 1.0));
}

}  // namespace

Orthophoto render_orthophoto(const Raster& dem, const Raster& accumulation,
                             const Raster& streams, const Raster& road_mask,
                             const std::vector<Crossing>& crossings,
                             const RenderConfig& config, Rng& rng) {
  const std::int64_t rows = dem.rows();
  const std::int64_t cols = dem.cols();
  DCN_CHECK(accumulation.rows() == rows && streams.rows() == rows &&
            road_mask.rows() == rows)
      << "layer sizes disagree";

  Orthophoto photo;
  for (auto& band : photo.bands) band = Raster(rows, cols);

  // Field texture: two noise scales — parcel-level crop variation plus
  // fine within-field texture.
  const Raster parcels = value_noise(rows, cols, 96.0, 2, rng);
  const Raster texture = value_noise(rows, cols, 7.0, 3, rng);

  const float max_acc = accumulation.max_value();
  const double log_max = std::log1p(static_cast<double>(max_acc));

  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int64_t i = r * cols + c;
      const double parcel = parcels.data()[i];
      const double tex =
          (texture.data()[i] - 0.5) * 2.0 * config.texture_amplitude;
      // Wetness in [0,1] from log flow accumulation.
      const double wet =
          std::log1p(static_cast<double>(accumulation.data()[i])) / log_max;

      // Crops: mix of green vegetation (high NIR) and bare brown soil.
      const double veg = 0.35 + 0.5 * parcel;
      double red = 0.32 - 0.10 * veg + tex;
      double green = 0.36 + 0.08 * veg + tex;
      double blue = 0.24 - 0.06 * veg + tex;
      double nir = 0.45 + 0.40 * veg + tex;

      // Moist soils darken in visible bands and brighten slightly in NIR.
      red -= 0.08 * wet;
      green -= 0.05 * wet;
      blue -= 0.02 * wet;
      nir += 0.05 * wet;

      // Open water: dark everywhere, very dark in NIR.
      if (streams.data()[i] > 0.0f) {
        red = 0.10 + tex * 0.3;
        green = 0.14 + tex * 0.3;
        blue = 0.18 + tex * 0.3;
        nir = 0.05 + tex * 0.2;
      } else if (wet > 0.55) {
        // Riparian vegetation fringe: very high NIR.
        nir = std::min(1.0, nir + 0.25 * (wet - 0.55) / 0.45);
      }

      // Road surface paints over everything with soft shoulders.
      const double road = road_mask.data()[i];
      if (road > 0.0) {
        const double gray = 0.55 + tex * 0.5;
        red = red * (1.0 - road) + gray * road;
        green = green * (1.0 - road) + gray * road;
        blue = blue * (1.0 - road) + gray * road;
        nir = nir * (1.0 - road) + 0.22 * road;
      }

      photo.bands[0].at(r, c) = clamp01(red);
      photo.bands[1].at(r, c) = clamp01(green);
      photo.bands[2].at(r, c) = clamp01(blue);
      photo.bands[3].at(r, c) = clamp01(nir);
    }
  }

  // Culvert signatures: bright concrete headwalls on both stream-sides of
  // the road plus a dark water slot across the embankment.
  for (const Crossing& x : crossings) {
    const std::int64_t half = x.extent / 2;
    const double k = config.culvert_contrast;
    for (std::int64_t dr = -half; dr <= half; ++dr) {
      for (std::int64_t dc = -half; dc <= half; ++dc) {
        const std::int64_t rr = x.row + dr;
        const std::int64_t cc = x.col + dc;
        if (!photo.bands[0].in_bounds(rr, cc)) continue;
        const double dist = std::sqrt(double(dr * dr + dc * dc));
        if (dist > half) continue;
        const std::int64_t i = rr * cols + cc;
        const bool on_road = road_mask.data()[i] > 0.4f;
        const bool on_stream = streams.data()[i] > 0.0f;
        if (on_stream && on_road) {
          // Water slot through the embankment.
          photo.bands[0].data()[i] = clamp01(0.12 * k + 0.12 * (1 - k));
          photo.bands[1].data()[i] = clamp01(0.15);
          photo.bands[2].data()[i] = clamp01(0.20);
          photo.bands[3].data()[i] = clamp01(0.04);
        } else if (on_road || dist <= half * 0.6) {
          // Concrete headwall / apron: bright in visible, moderate NIR.
          const double w = k * (1.0 - dist / (half + 1.0));
          photo.bands[0].data()[i] =
              clamp01(photo.bands[0].data()[i] * (1 - w) + 0.85 * w);
          photo.bands[1].data()[i] =
              clamp01(photo.bands[1].data()[i] * (1 - w) + 0.85 * w);
          photo.bands[2].data()[i] =
              clamp01(photo.bands[2].data()[i] * (1 - w) + 0.80 * w);
          photo.bands[3].data()[i] =
              clamp01(photo.bands[3].data()[i] * (1 - w) + 0.35 * w);
        }
      }
    }
  }

  // Riparian canopy occlusion: clusters of tree crowns over a fraction of
  // the crossings, partially or fully hiding the culvert signature (and
  // the road/stream context beneath them).
  if (config.canopy_occlusion > 0.0) {
    for (const Crossing& x : crossings) {
      if (!rng.bernoulli(config.canopy_occlusion)) continue;
      const int crowns = static_cast<int>(rng.uniform_int(3, 6));
      for (int t = 0; t < crowns; ++t) {
        const double cr = x.row + rng.normal(0.0, x.extent * 0.45);
        const double cc = x.col + rng.normal(0.0, x.extent * 0.45);
        const double radius = rng.uniform(3.0, 7.0);
        const std::int64_t reach = static_cast<std::int64_t>(radius) + 1;
        for (std::int64_t dr = -reach; dr <= reach; ++dr) {
          for (std::int64_t dc = -reach; dc <= reach; ++dc) {
            const auto rr = static_cast<std::int64_t>(cr) + dr;
            const auto cc2 = static_cast<std::int64_t>(cc) + dc;
            if (!photo.bands[0].in_bounds(rr, cc2)) continue;
            const double dist = std::sqrt(double(dr * dr + dc * dc));
            if (dist > radius) continue;
            // Soft-edged crown: dark green, very high NIR.
            const double w =
                std::min(1.0, 1.4 * (1.0 - dist / (radius + 0.5)));
            const std::int64_t i = rr * cols + cc2;
            photo.bands[0].data()[i] = clamp01(
                photo.bands[0].data()[i] * (1 - w) + 0.16 * w);
            photo.bands[1].data()[i] = clamp01(
                photo.bands[1].data()[i] * (1 - w) + 0.26 * w);
            photo.bands[2].data()[i] = clamp01(
                photo.bands[2].data()[i] * (1 - w) + 0.14 * w);
            photo.bands[3].data()[i] = clamp01(
                photo.bands[3].data()[i] * (1 - w) + 0.88 * w);
          }
        }
      }
    }
  }

  // Sensor noise.
  if (config.sensor_noise > 0.0) {
    for (auto& band : photo.bands) {
      for (std::int64_t i = 0; i < band.size(); ++i) {
        band.data()[i] = clamp01(band.data()[i] +
                                 rng.normal(0.0, config.sensor_noise));
      }
    }
  }
  return photo;
}

}  // namespace dcn::geo
