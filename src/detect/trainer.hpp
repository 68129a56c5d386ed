// Training and evaluation harness for detection models.
//
// Defaults mirror the paper's §6.1 setup: SGD with lr 0.005, weight decay
// 0.0005, momentum 0.9, batch size 20, 80/20 train/test split, and the
// average-precision metric of Equation 1.
#pragma once

#include <functional>

#include "detect/metrics.hpp"
#include "detect/sppnet.hpp"
#include "geo/dataset.hpp"
#include "nn/sgd.hpp"

namespace dcn::detect {

struct TrainConfig {
  int epochs = 12;
  std::int64_t batch_size = 20;
  SgdConfig sgd;  // paper defaults
  double train_fraction = 0.8;
  std::uint64_t shuffle_seed = 7;
  /// Weight of the box-regression term in the multi-task loss.
  double box_loss_weight = 2.0;
  /// Step learning-rate decay: multiply the LR by `lr_decay_factor` when
  /// training passes each fraction in `lr_decay_milestones` (stabilizes
  /// the box regressor near convergence).
  double lr_decay_factor = 0.2;
  std::vector<double> lr_decay_milestones{0.6, 0.85};
  /// Log a line per epoch.
  bool verbose = true;
};

struct EpochStats {
  int epoch = 0;
  double mean_loss = 0.0;
  double grad_norm = 0.0;
  /// Wall-clock seconds spent in this epoch's forward/backward/step loop.
  double seconds = 0.0;
};

struct EvalResult {
  double average_precision = 0.0;
  double accuracy = 0.0;   // at confidence 0.5
  double mean_iou = 0.0;   // over confident detections on positive images
  std::vector<ScoredDetection> detections;
};

/// Any module mapping [N,C,H,W] -> [N,5] can be trained/evaluated.
struct TrainHistory {
  std::vector<EpochStats> epochs;
  EvalResult final_eval;
};

/// Train `model` on the split's train indices; evaluate on its test indices.
TrainHistory train_detector(Module& model, const geo::DrainageDataset& dataset,
                            const geo::Split& split, const TrainConfig& config);

/// Evaluate `model` on the given sample indices.
EvalResult evaluate_detector(Module& model,
                             const geo::DrainageDataset& dataset,
                             const std::vector<std::size_t>& indices,
                             std::int64_t batch_size = 20);

}  // namespace dcn::detect
