#include "geo/dataset.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "geo/hydrology.hpp"

namespace dcn::geo {

World synthesize_world(const DatasetConfig& config, Rng& rng) {
  World world;
  world.dem_raw = synthesize_terrain(config.terrain, rng);

  world.roads = synthesize_roads(config.terrain.rows, config.terrain.cols,
                                 config.roads, rng);
  world.road_mask = rasterize_roads(config.terrain.rows, config.terrain.cols,
                                    world.roads);

  // Road embankments become digital dams on the DEM.
  apply_embankment(world.dem_raw, world.road_mask, 1.5f);

  // First hydrology pass on the dammed DEM to locate streams and thus the
  // culverts that must exist where streams meet roads.
  Raster filled = fill_depressions(world.dem_raw);
  auto dirs = flow_directions(filled);
  Raster acc = flow_accumulation(filled, dirs);
  Raster streams =
      extract_streams(acc, static_cast<float>(config.stream_threshold));
  world.crossings = find_crossings(streams, world.roads);

  // Breach the DEM at the culverts and re-run hydrology: this is the
  // paper's Figure-1 "incorporate culvert information" step and yields the
  // connected drainage network the detector's labels are based on.
  world.dem = world.dem_raw;
  std::vector<std::pair<std::int64_t, std::int64_t>> cells;
  cells.reserve(world.crossings.size());
  for (const Crossing& x : world.crossings) cells.emplace_back(x.row, x.col);
  breach_at(world.dem, cells, 3.0f, 2);

  filled = fill_depressions(world.dem);
  dirs = flow_directions(filled);
  world.accumulation = flow_accumulation(filled, dirs);
  world.streams = extract_streams(
      world.accumulation, static_cast<float>(config.stream_threshold));

  world.photo =
      render_orthophoto(world.dem, world.accumulation, world.streams,
                        world.road_mask, world.crossings, config.render, rng);
  return world;
}

DrainageDataset DrainageDataset::synthesize(const DatasetConfig& config) {
  DCN_CHECK(config.num_worlds >= 1) << "need at least one world";
  DCN_CHECK(config.patch_size >= 16) << "patch size too small";
  Rng rng(config.seed);
  DrainageDataset dataset;

  for (int w = 0; w < config.num_worlds; ++w) {
    Rng world_rng = rng.split();
    const World world = synthesize_world(config, world_rng);
    DCN_LOG_DEBUG << "world " << w << ": " << world.crossings.size()
                  << " crossings";

    std::vector<PatchSample> positives;
    for (const Crossing& x : world.crossings) {
      positives.push_back(make_positive(world.photo, x, config.patch_size,
                                        config.positive_jitter, world_rng));
    }
    if (config.augment_flips) {
      const std::size_t base = positives.size();
      for (std::size_t i = 0; i < base; ++i) {
        positives.push_back(flip_horizontal(positives[i]));
        positives.push_back(flip_vertical(positives[i]));
      }
    }

    const auto num_neg = static_cast<std::size_t>(
        static_cast<double>(positives.size()) * config.negative_ratio);
    std::vector<PatchSample> negatives;
    for (std::size_t i = 0; i < num_neg; ++i) {
      PatchSample neg;
      if (make_negative(world.photo, world.crossings, config.patch_size,
                        config.patch_size, world_rng, neg)) {
        negatives.push_back(std::move(neg));
      }
    }

    for (auto& s : positives) dataset.add_sample(std::move(s));
    for (auto& s : negatives) dataset.add_sample(std::move(s));
    if (config.max_samples > 0 &&
        static_cast<std::int64_t>(dataset.size()) >= config.max_samples) {
      break;
    }
  }

  if (config.max_samples > 0 &&
      static_cast<std::int64_t>(dataset.size()) >
          config.max_samples) {
    // Drop a random suffix of a shuffled order so class balance survives.
    const auto perm = rng.permutation(dataset.size());
    DrainageDataset trimmed;
    for (std::int64_t i = 0; i < config.max_samples; ++i) {
      trimmed.add_sample(dataset.samples_[perm[static_cast<std::size_t>(i)]]);
    }
    return trimmed;
  }
  return dataset;
}

const PatchSample& DrainageDataset::sample(std::size_t i) const {
  DCN_CHECK(i < samples_.size()) << "sample index " << i;
  return samples_[i];
}

std::size_t DrainageDataset::num_positives() const {
  std::size_t n = 0;
  for (const auto& s : samples_) n += s.label > 0.0f ? 1 : 0;
  return n;
}

Split DrainageDataset::split(double train_fraction,
                             std::uint64_t seed) const {
  DCN_CHECK(train_fraction > 0.0 && train_fraction < 1.0)
      << "train fraction " << train_fraction;
  Rng rng(seed);
  const auto perm = rng.permutation(samples_.size());
  const auto cut = static_cast<std::size_t>(
      static_cast<double>(samples_.size()) * train_fraction);
  Split split;
  split.train.assign(perm.begin(), perm.begin() + cut);
  split.test.assign(perm.begin() + cut, perm.end());
  return split;
}

Batch DrainageDataset::make_batch(
    const std::vector<std::size_t>& indices) const {
  DCN_CHECK(!indices.empty()) << "empty batch";
  const PatchSample& first = sample(indices[0]);
  const std::int64_t channels = first.image.dim(0);
  const std::int64_t size = first.image.dim(1);
  const auto n = static_cast<std::int64_t>(indices.size());

  Batch batch;
  batch.images = Tensor(Shape{n, channels, size, size});
  batch.labels = Tensor(Shape{n});
  batch.boxes = Tensor(Shape{n, 4});
  const std::int64_t stride = channels * size * size;
  for (std::int64_t i = 0; i < n; ++i) {
    const PatchSample& s = sample(indices[static_cast<std::size_t>(i)]);
    DCN_CHECK(s.image.shape() == first.image.shape())
        << "mixed patch shapes in one batch";
    std::copy(s.image.data(), s.image.data() + stride,
              batch.images.data() + i * stride);
    batch.labels[i] = s.label;
    for (std::int64_t c = 0; c < 4; ++c) batch.boxes[i * 4 + c] = s.box[c];
  }
  return batch;
}

std::vector<std::vector<std::size_t>> DrainageDataset::batch_indices(
    const std::vector<std::size_t>& indices, std::int64_t batch_size) {
  DCN_CHECK(batch_size > 0) << "batch size";
  std::vector<std::vector<std::size_t>> batches;
  for (std::size_t i = 0; i < indices.size();
       i += static_cast<std::size_t>(batch_size)) {
    const std::size_t end = std::min(
        indices.size(), i + static_cast<std::size_t>(batch_size));
    batches.emplace_back(indices.begin() + i, indices.begin() + end);
  }
  return batches;
}

}  // namespace dcn::geo
