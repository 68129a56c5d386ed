// End-to-end synthetic drainage-crossing dataset.
//
// Replaces the paper's West Fork Big Blue training data (NAIP orthophotos +
// 2022 manually digitized crossings): synthesizes one or more watershed
// worlds, finds the ground-truth crossings hydrologically, clips positive
// and negative patches, and optionally multiplies positives with flip
// augmentation. Batching follows the paper's setup (batch size 20, 80/20
// train/test split).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/patch.hpp"
#include "geo/render.hpp"
#include "geo/roads.hpp"
#include "geo/terrain.hpp"
#include "tensor/tensor.hpp"

namespace dcn::geo {

struct DatasetConfig {
  std::uint64_t seed = 2022;
  /// Number of independent watershed worlds to synthesize.
  int num_worlds = 2;
  TerrainConfig terrain;
  RoadConfig roads;
  RenderConfig render;
  /// Flow-accumulation threshold (cells) for stream extraction.
  double stream_threshold = 600.0;
  /// Patch side length in cells (paper: 100).
  std::int64_t patch_size = 100;
  /// Jitter of the crossing inside positive patches. The paper clips with
  /// the crossing exactly at the patch center (§3.2); a small jitter keeps
  /// the box-regression head honest without changing the task difficulty.
  std::int64_t positive_jitter = 6;
  /// Negative patches per positive patch.
  double negative_ratio = 1.0;
  /// Apply horizontal/vertical flip augmentation to positives.
  bool augment_flips = true;
  /// Cap on total samples (0 = unlimited).
  std::int64_t max_samples = 0;
};

/// Fixed-size minibatch in NCHW layout.
struct Batch {
  Tensor images;  // [N, 4, size, size]
  Tensor labels;  // [N]
  Tensor boxes;   // [N, 4]
  std::int64_t size() const { return images.dim(0); }
};

/// Index-based train/test partition.
struct Split {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// In-memory sample collection.
class DrainageDataset {
 public:
  /// Synthesize per the config (deterministic in config.seed).
  static DrainageDataset synthesize(const DatasetConfig& config);

  std::size_t size() const { return samples_.size(); }
  const PatchSample& sample(std::size_t i) const;

  std::size_t num_positives() const;
  std::size_t num_negatives() const { return size() - num_positives(); }

  /// Shuffled train/test split with the given train fraction (paper: 0.8).
  Split split(double train_fraction, std::uint64_t seed) const;

  /// Assemble a batch from sample indices.
  Batch make_batch(const std::vector<std::size_t>& indices) const;

  /// Partition `indices` into batches of at most `batch_size`.
  static std::vector<std::vector<std::size_t>> batch_indices(
      const std::vector<std::size_t>& indices, std::int64_t batch_size);

  void add_sample(PatchSample sample) {
    samples_.push_back(std::move(sample));
  }

 private:
  std::vector<PatchSample> samples_;
};

/// One fully synthesized world (exposed for examples and tests).
struct World {
  Raster dem;             // culvert-breached DEM used for flow routing
  Raster dem_raw;         // DEM with road embankments, before breaching
  Raster accumulation;
  Raster streams;
  Raster road_mask;
  std::vector<Road> roads;
  std::vector<Crossing> crossings;
  Orthophoto photo;
};

/// Build a world: terrain -> roads -> embankments -> hydrology -> crossings
/// -> culvert breaching -> re-routed hydrology -> rendering.
World synthesize_world(const DatasetConfig& config, Rng& rng);

}  // namespace dcn::geo
