// Watershed survey: the paper's application end to end.
//
// Synthesizes a West-Fork-Big-Blue-style watershed, demonstrates the
// "digital dam" problem (Figure 1) on its DEM, trains an SPP-Net on
// crossing patches, then scans the whole orthophoto with the trained
// detector plus the region-proposal baseline and reports how many
// ground-truth culverts each recovers. Writes PPM/PGM previews of the
// scene and Figure-4-style patch samples into --outdir.
#include <cstdio>
#include <filesystem>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "detect/metrics.hpp"
#include "detect/rcnn_lite.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "geo/hydrology.hpp"
#include "geo/ppm.hpp"
#include "geo/streamstats.hpp"
#include "geo/tiling.hpp"

namespace {

using namespace dcn;

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags("drainage_survey", "full watershed survey + detection scan");
  flags.add_int("seed", 2022, "global random seed");
  flags.add_int("size", 512, "watershed side length in cells");
  flags.add_int("patch", 48, "detector patch size");
  flags.add_int("epochs", 18, "detector training epochs");
  flags.add_string("outdir", "survey_out", "directory for image previews");
  if (!flags.parse(argc, argv)) return 0;

  geo::DatasetConfig config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.terrain.rows = config.terrain.cols = flags.get_int("size");
  config.patch_size = flags.get_int("patch");

  // --- The watershed itself.
  Rng world_rng(config.seed);
  const geo::World world = geo::synthesize_world(config, world_rng);
  std::printf("watershed: %lldx%lld cells, %zu roads, %zu drainage crossings\n",
              static_cast<long long>(world.dem.rows()),
              static_cast<long long>(world.dem.cols()), world.roads.size(),
              world.crossings.size());

  // --- Digital dams (Figure 1): road embankments force DEM processing to
  //     pond water until it spills over the dam. The artificial fill
  //     volume required to drain the dammed DEM, versus the breached DEM,
  //     quantifies the artifact the paper's culvert detection removes.
  {
    auto fill_volume = [](const geo::Raster& dem) {
      const geo::Raster filled = geo::fill_depressions(dem);
      double volume = 0.0;
      for (std::int64_t i = 0; i < dem.size(); ++i) {
        volume += static_cast<double>(filled.data()[i]) - dem.data()[i];
      }
      return volume;  // cell-meters of artificial fill
    };
    const double dammed_fill = fill_volume(world.dem_raw);
    const double breached_fill = fill_volume(world.dem);
    std::printf(
        "digital dams: draining the embankment DEM needs %.0f m^3 of "
        "artificial fill (water ponded behind digital dams); culvert "
        "breaching cuts that to %.0f m^3 (%.1fx less)\n",
        dammed_fill, breached_fill,
        dammed_fill / std::max(1.0, breached_fill));
  }

  // --- Stream-network analytics (realism report for the synthetic basin).
  {
    const geo::Raster filled = geo::fill_depressions(world.dem);
    const auto dirs = geo::flow_directions(filled);
    const auto stats = geo::watershed_stats(world.dem, world.streams, dirs,
                                            world.crossings);
    std::printf(
        "stream network: max Strahler order %d, %lld sources, drainage "
        "density %.4f, relief %.1f m, %.1f crossings per 1000 stream "
        "cells\n",
        stats.max_strahler_order, static_cast<long long>(stats.sources),
        stats.drainage_density, stats.relief, stats.crossing_density);
  }

  // --- Previews.
  const std::string outdir = flags.get_string("outdir");
  std::filesystem::create_directories(outdir);
  geo::write_ppm_rgb(outdir + "/orthophoto.ppm", world.photo);
  geo::write_pgm(outdir + "/dem.pgm", world.dem);
  geo::write_pgm(outdir + "/accumulation.pgm", world.accumulation);
  geo::write_pgm(outdir + "/streams.pgm", world.streams);

  // --- Dataset + training (Figure-4-style samples are dumped as PPM).
  const auto dataset = geo::DrainageDataset::synthesize(config);
  for (std::size_t i = 0; i < std::min<std::size_t>(6, dataset.size()); ++i) {
    const auto& sample = dataset.sample(i);
    geo::write_patch_ppm(outdir + "/sample" + std::to_string(i) + ".ppm",
                         sample.image,
                         sample.label > 0 ? sample.box.data() : nullptr);
  }
  std::printf("previews written to %s/\n", outdir.c_str());

  Rng rng(config.seed + 1);
  detect::SppNet model(detect::original_sppnet(), rng);
  const geo::Split split = dataset.split(0.8, 3);
  detect::TrainConfig train_config;
  train_config.epochs = static_cast<int>(flags.get_int("epochs"));
  const auto history =
      detect::train_detector(model, dataset, split, train_config);
  std::printf("detector trained: AP %s on held-out patches\n",
              format_percent(history.final_eval.average_precision).c_str());

  // --- Survey scan: tile the watershed (50% overlap, georeferenced) and
  //     detect crossings in each tile.
  const std::int64_t patch = config.patch_size;
  geo::GeoTransform transform;  // synthetic scene at a local origin, 1 m GSD
  const auto tiles = geo::make_tiles(world.dem.rows(), world.dem.cols(),
                                     patch, 0.5, transform);
  std::size_t sppnet_hits = 0;
  std::size_t rcnn_hits = 0;
  detect::RcnnLiteDetector rcnn(model);
  std::vector<bool> found_spp(world.crossings.size(), false);
  std::vector<bool> found_rcnn(world.crossings.size(), false);

  for (const geo::Tile& tile : tiles) {
    const Tensor image = geo::extract_tile(world.photo, tile);
    Tensor batch(Shape{1, 4, patch, patch});
    std::copy(image.data(), image.data() + image.numel(), batch.data());
    const auto preds = model.predict(batch);
    auto mark = [&](std::vector<bool>& found, const float box[4]) {
      const auto [wx, wy] = geo::detection_to_world(tile, box, transform);
      const auto [pr, pc] = transform.world_to_pixel(wx, wy);
      for (std::size_t k = 0; k < world.crossings.size(); ++k) {
        if (std::abs(world.crossings[k].row - pr) < patch / 3.0 &&
            std::abs(world.crossings[k].col - pc) < patch / 3.0) {
          found[k] = true;
        }
      }
    };
    if (preds[0].confidence > 0.5f) {
      ++sppnet_hits;
      mark(found_spp, preds[0].box.data());
    }
    const detect::Prediction rp = rcnn.detect(image);
    if (rp.confidence > 0.25f) {
      ++rcnn_hits;
      mark(found_rcnn, rp.box.data());
    }
  }

  auto recall = [&](const std::vector<bool>& found) {
    std::size_t hits = 0;
    for (bool f : found) hits += f ? 1 : 0;
    return static_cast<double>(hits) /
           static_cast<double>(std::max<std::size_t>(1, found.size()));
  };
  TextTable table({"Detector", "Tiles flagged", "Crossing recall"});
  table.add_row({"SPP-Net (sliding window)", std::to_string(sppnet_hits),
                 format_percent(recall(found_spp))});
  table.add_row({"R-CNN lite (proposals + SPP scorer)",
                 std::to_string(rcnn_hits),
                 format_percent(recall(found_rcnn))});
  std::printf("\n%s", table.to_string().c_str());
  return 0;
}
