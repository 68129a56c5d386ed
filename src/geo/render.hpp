// 4-band orthophoto renderer.
//
// Produces NAIP-like R, G, B, NIR bands in [0, 1] from the synthesized
// terrain, hydrology, and road layers. The visual grammar follows the
// paper's Figure 4 samples: green/brown agricultural texture, gray road
// surfaces, dark stream channels with high-NIR riparian vegetation, and a
// compact culvert signature (concrete headwalls) at drainage crossings.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geo/crossings.hpp"
#include "geo/raster.hpp"

namespace dcn {
class Rng;
}

namespace dcn::geo {

/// A co-registered 4-band image. Band order: R, G, B, NIR.
struct Orthophoto {
  std::array<Raster, 4> bands;

  std::int64_t rows() const { return bands[0].rows(); }
  std::int64_t cols() const { return bands[0].cols(); }
};

struct RenderConfig {
  /// Per-band additive Gaussian sensor noise (std dev).
  double sensor_noise = 0.02;
  /// Small-scale field texture amplitude.
  double texture_amplitude = 0.08;
  /// Culvert signature contrast in [0,1]; lower is harder to detect.
  double culvert_contrast = 0.8;
  /// Probability that a crossing is partially hidden under riparian tree
  /// canopy (the dominant real-world failure mode for NAIP imagery); the
  /// occluded fraction of positives is what keeps AP below 100%.
  double canopy_occlusion = 0.0;
};

/// Render the watershed into a 4-band orthophoto.
Orthophoto render_orthophoto(const Raster& dem, const Raster& accumulation,
                             const Raster& streams, const Raster& road_mask,
                             const std::vector<Crossing>& crossings,
                             const RenderConfig& config, Rng& rng);

}  // namespace dcn::geo
