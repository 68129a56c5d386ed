// Tests for roads, crossings, rendering, patches, rot90 augmentation,
// georeferenced tiling, and dataset assembly.
#include "geo/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "geo/patch.hpp"
#include "geo/tiling.hpp"

namespace dcn::geo {
namespace {

DatasetConfig small_config() {
  DatasetConfig config;
  config.seed = 7;
  config.num_worlds = 1;
  config.terrain.rows = 256;
  config.terrain.cols = 256;
  config.roads.spacing = 64;
  config.stream_threshold = 200.0;
  config.patch_size = 32;
  config.positive_jitter = 3;
  return config;
}

TEST(Roads, SynthesisAndRasterization) {
  Rng rng(5);
  RoadConfig config;
  config.spacing = 64;
  const auto roads = synthesize_roads(256, 256, config, rng);
  EXPECT_GE(roads.size(), 4u);
  const Raster mask = rasterize_roads(256, 256, roads);
  double covered = 0.0;
  for (std::int64_t i = 0; i < mask.size(); ++i) {
    EXPECT_GE(mask.data()[i], 0.0f);
    EXPECT_LE(mask.data()[i], 1.0f);
    covered += mask.data()[i] > 0.5f ? 1 : 0;
  }
  // Roads cover a small but nonzero fraction of the scene.
  EXPECT_GT(covered / mask.size(), 0.01);
  EXPECT_LT(covered / mask.size(), 0.5);
}

TEST(Roads, CenterlinesStayInBounds) {
  Rng rng(9);
  RoadConfig config;
  config.spacing = 50;
  for (const Road& road : synthesize_roads(128, 200, config, rng)) {
    for (const auto& [r, c] : road.centerline) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 128);
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 200);
    }
  }
}

TEST(Crossings, FoundWhereStreamMeetsRoad) {
  // One horizontal stream, one vertical road -> exactly one crossing.
  Raster streams(64, 64);
  for (std::int64_t c = 0; c < 64; ++c) streams.at(32, c) = 1.0f;
  Road road;
  road.width = 4.0;
  for (std::int64_t r = 0; r < 64; ++r) road.centerline.emplace_back(r, 20);
  const auto crossings = find_crossings(streams, {road});
  ASSERT_EQ(crossings.size(), 1u);
  EXPECT_EQ(crossings[0].col, 20);
  EXPECT_NEAR(static_cast<double>(crossings[0].row), 32.0, 1.5);
}

TEST(Crossings, MinSeparationSuppressesDuplicates) {
  Raster streams(64, 64);
  for (std::int64_t c = 0; c < 64; ++c) {
    streams.at(30, c) = 1.0f;
    streams.at(34, c) = 1.0f;  // two parallel streams 4 cells apart
  }
  Road road;
  road.width = 4.0;
  for (std::int64_t r = 0; r < 64; ++r) road.centerline.emplace_back(r, 20);
  EXPECT_EQ(find_crossings(streams, {road}, 24).size(), 1u);
  // A small separation admits one crossing per stream (the ±1 stream
  // lookaround can register a few extra cells, never fewer than the two
  // physical crossings).
  const auto fine = find_crossings(streams, {road}, 2);
  EXPECT_GE(fine.size(), 2u);
  EXPECT_LE(fine.size(), 6u);
  EXPECT_GT(fine.size(), find_crossings(streams, {road}, 24).size());
}

TEST(World, SynthesisProducesConsistentLayers) {
  Rng rng(7);
  const DatasetConfig config = small_config();
  const World world = synthesize_world(config, rng);
  EXPECT_EQ(world.dem.rows(), 256);
  EXPECT_EQ(world.photo.rows(), 256);
  EXPECT_FALSE(world.roads.empty());
  EXPECT_FALSE(world.crossings.empty());
  // Bands in [0, 1].
  for (const Raster& band : world.photo.bands) {
    EXPECT_GE(band.min_value(), 0.0f);
    EXPECT_LE(band.max_value(), 1.0f);
  }
  // Every crossing sits on (or adjacent to) a road.
  for (const Crossing& x : world.crossings) {
    float road_near = 0.0f;
    for (int dr = -2; dr <= 2; ++dr) {
      for (int dc = -2; dc <= 2; ++dc) {
        if (world.road_mask.in_bounds(x.row + dr, x.col + dc)) {
          road_near = std::max(road_near,
                               world.road_mask.at(x.row + dr, x.col + dc));
        }
      }
    }
    EXPECT_GT(road_near, 0.5f);
  }
}

TEST(Patch, ClipShapeAndEdgeClamping) {
  Rng rng(7);
  const DatasetConfig config = small_config();
  const World world = synthesize_world(config, rng);
  const Tensor patch = clip_patch(world.photo, 0, 0, 32);  // corner: clamps
  EXPECT_EQ(patch.shape(), Shape({4, 32, 32}));
  for (std::int64_t i = 0; i < patch.numel(); ++i) {
    EXPECT_GE(patch[i], 0.0f);
    EXPECT_LE(patch[i], 1.0f);
  }
}

TEST(Patch, PositiveBoxCoversCrossing) {
  Rng rng(7);
  const DatasetConfig config = small_config();
  const World world = synthesize_world(config, rng);
  Rng jitter_rng(13);
  for (const Crossing& x : world.crossings) {
    const PatchSample sample =
        make_positive(world.photo, x, 32, 3, jitter_rng);
    EXPECT_EQ(sample.label, 1.0f);
    // Box center within the patch and box has positive extent.
    EXPECT_GE(sample.box[0], 0.0f);
    EXPECT_LE(sample.box[0], 1.0f);
    EXPECT_GT(sample.box[2], 0.0f);
    EXPECT_GT(sample.box[3], 0.0f);
    // Jitter <= 3 cells on a 32 patch keeps the center near the middle.
    EXPECT_NEAR(sample.box[0], 0.5f, 3.0f / 32.0f + 1e-5f);
    EXPECT_NEAR(sample.box[1], 0.5f, 3.0f / 32.0f + 1e-5f);
  }
}

TEST(Patch, NegativesAvoidCrossings) {
  Rng rng(7);
  const DatasetConfig config = small_config();
  const World world = synthesize_world(config, rng);
  Rng neg_rng(17);
  PatchSample neg;
  ASSERT_TRUE(make_negative(world.photo, world.crossings, 32, 32, neg_rng,
                            neg));
  EXPECT_EQ(neg.label, 0.0f);
  EXPECT_EQ(neg.box[2], 0.0f);
}

TEST(Patch, FlipsAreInvolutionsAndRemapBoxes) {
  Rng rng(7);
  const DatasetConfig config = small_config();
  const World world = synthesize_world(config, rng);
  Rng jitter_rng(19);
  const PatchSample sample =
      make_positive(world.photo, world.crossings[0], 32, 3, jitter_rng);
  const PatchSample flipped = flip_horizontal(sample);
  EXPECT_NEAR(flipped.box[0], 1.0f - sample.box[0], 1e-6f);
  EXPECT_EQ(flipped.box[1], sample.box[1]);
  const PatchSample back = flip_horizontal(flipped);
  for (std::int64_t i = 0; i < sample.image.numel(); ++i) {
    ASSERT_EQ(back.image[i], sample.image[i]) << "pixel " << i;
  }
  const PatchSample vflip = flip_vertical(sample);
  EXPECT_NEAR(vflip.box[1], 1.0f - sample.box[1], 1e-6f);
  EXPECT_EQ(vflip.box[0], sample.box[0]);
}

TEST(Dataset, SynthesisDeterministicAndBalanced) {
  const DatasetConfig config = small_config();
  const DrainageDataset a = DrainageDataset::synthesize(config);
  const DrainageDataset b = DrainageDataset::synthesize(config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.sample(i).label, b.sample(i).label);
    EXPECT_EQ(a.sample(i).image[0], b.sample(i).image[0]);
  }
  // Roughly balanced classes (negative_ratio = 1).
  const double pos_frac =
      static_cast<double>(a.num_positives()) / static_cast<double>(a.size());
  EXPECT_GT(pos_frac, 0.35);
  EXPECT_LT(pos_frac, 0.65);
}

TEST(Dataset, MaxSamplesTrims) {
  DatasetConfig config = small_config();
  config.max_samples = 10;
  const DrainageDataset dataset = DrainageDataset::synthesize(config);
  EXPECT_EQ(dataset.size(), 10u);
}

TEST(Dataset, SplitIsDisjointAndComplete) {
  const DrainageDataset dataset = DrainageDataset::synthesize(small_config());
  const Split split = dataset.split(0.8, 3);
  EXPECT_EQ(split.train.size() + split.test.size(), dataset.size());
  std::set<std::size_t> seen(split.train.begin(), split.train.end());
  for (std::size_t idx : split.test) {
    EXPECT_FALSE(seen.count(idx));
    seen.insert(idx);
  }
  EXPECT_EQ(seen.size(), dataset.size());
  // 80/20 ratio within one sample.
  EXPECT_NEAR(static_cast<double>(split.train.size()) / dataset.size(), 0.8,
              0.05);
}

TEST(Dataset, BatchAssembly) {
  const DrainageDataset dataset = DrainageDataset::synthesize(small_config());
  const Batch batch = dataset.make_batch({0, 1, 2});
  EXPECT_EQ(batch.size(), 3);
  EXPECT_EQ(batch.images.shape(), Shape({3, 4, 32, 32}));
  EXPECT_EQ(batch.labels.shape(), Shape({3}));
  EXPECT_EQ(batch.boxes.shape(), Shape({3, 4}));
  EXPECT_EQ(batch.labels[1], dataset.sample(1).label);
  EXPECT_EQ(batch.images[4 * 32 * 32], dataset.sample(1).image[0]);
}

TEST(Dataset, BatchIndicesPartition) {
  const std::vector<std::size_t> indices{0, 1, 2, 3, 4, 5, 6};
  const auto batches = DrainageDataset::batch_indices(indices, 3);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[2].size(), 1u);
  EXPECT_EQ(batches[2][0], 6u);
}

TEST(Dataset, CulvertContrastControlsSignature) {
  // With zero contrast the culvert signature disappears from positives —
  // the dataset difficulty knob the accuracy benches document.
  DatasetConfig hard = small_config();
  hard.render.culvert_contrast = 0.0;
  hard.render.sensor_noise = 0.0;
  DatasetConfig easy = small_config();
  easy.render.culvert_contrast = 1.0;
  easy.render.sensor_noise = 0.0;
  Rng rng_hard(3);
  Rng rng_easy(3);
  const World wh = synthesize_world(hard, rng_hard);
  const World we = synthesize_world(easy, rng_easy);
  ASSERT_FALSE(we.crossings.empty());
  // The easy world's crossing neighborhoods are visibly brighter (concrete
  // headwalls) than the hard world's.
  double bright_easy = 0.0;
  double bright_hard = 0.0;
  for (std::size_t i = 0;
       i < std::min(we.crossings.size(), wh.crossings.size()); ++i) {
    bright_easy += we.photo.bands[0].at_clamped(we.crossings[i].row,
                                                we.crossings[i].col + 3);
    bright_hard += wh.photo.bands[0].at_clamped(wh.crossings[i].row,
                                                wh.crossings[i].col + 3);
  }
  EXPECT_GT(bright_easy, bright_hard);
}

TEST(GeoTransform, RoundTripsCoordinates) {
  geo::GeoTransform t;
  t.origin_x = 500000.0;
  t.origin_y = 4480000.0;
  t.pixel_size = 1.0;
  const auto [x, y] = t.pixel_to_world(10, 20);
  EXPECT_DOUBLE_EQ(x, 500020.5);
  EXPECT_DOUBLE_EQ(y, 4480000.0 - 10.5);
  const auto [row, col] = t.world_to_pixel(x, y);
  EXPECT_NEAR(row, 10.0, 1e-9);
  EXPECT_NEAR(col, 20.0, 1e-9);
}

TEST(Tiling, CoversSceneWithoutGaps) {
  geo::GeoTransform t;
  const auto tiles = geo::make_tiles(256, 300, 100, 0.5, t);
  ASSERT_FALSE(tiles.empty());
  // Every pixel covered by at least one tile.
  std::vector<bool> row_covered(256, false);
  std::vector<bool> col_covered(300, false);
  for (const geo::Tile& tile : tiles) {
    EXPECT_GE(tile.row, 0);
    EXPECT_LE(tile.row + tile.size, 256);
    EXPECT_LE(tile.col + tile.size, 300);
    for (std::int64_t r = tile.row; r < tile.row + tile.size; ++r) {
      row_covered[static_cast<std::size_t>(r)] = true;
    }
    for (std::int64_t c = tile.col; c < tile.col + tile.size; ++c) {
      col_covered[static_cast<std::size_t>(c)] = true;
    }
  }
  EXPECT_TRUE(std::all_of(row_covered.begin(), row_covered.end(),
                          [](bool b) { return b; }));
  EXPECT_TRUE(std::all_of(col_covered.begin(), col_covered.end(),
                          [](bool b) { return b; }));
}

TEST(Tiling, RejectsOversizedTiles) {
  geo::GeoTransform t;
  EXPECT_THROW(geo::make_tiles(64, 64, 100, 0.0, t), Error);
}

TEST(Tiling, DetectionGeoreferencing) {
  geo::GeoTransform t;
  t.pixel_size = 1.0;
  geo::Tile tile;
  tile.row = 100;
  tile.col = 200;
  tile.size = 50;
  const float box[4] = {0.5f, 0.5f, 0.2f, 0.2f};  // tile center
  const auto [x, y] = geo::detection_to_world(tile, box, t);
  const auto [cx, cy] = t.pixel_to_world(125 - 0.5, 225 - 0.5);
  EXPECT_NEAR(x, cx, 1e-9);
  EXPECT_NEAR(y, cy, 1e-9);
}

}  // namespace
}  // namespace dcn::geo
