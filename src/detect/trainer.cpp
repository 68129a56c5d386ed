#include "detect/trainer.hpp"

#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "nn/loss.hpp"

namespace dcn::detect {
namespace {

constexpr std::uint64_t kShuffleSeed = 7;
/// Weight of the box-regression term in the multi-task loss.
constexpr double kBoxLossWeight = 2.0;
/// Step learning-rate decay: multiply the LR by kLrDecayFactor when
/// training passes each fraction in kLrDecayMilestones (stabilizes the box
/// regressor near convergence).
constexpr double kLrDecayFactor = 0.2;
constexpr double kLrDecayMilestones[] = {0.6, 0.85};

}  // namespace

EvalResult evaluate_detector(Module& model,
                             const geo::DrainageDataset& dataset,
                             const std::vector<std::size_t>& indices,
                             std::int64_t batch_size) {
  DCN_CHECK(!indices.empty()) << "evaluation over empty index set";
  const bool was_training = model.is_training();
  model.set_training(false);

  EvalResult result;
  for (const auto& batch_idx :
       geo::DrainageDataset::batch_indices(indices, batch_size)) {
    const geo::Batch batch = dataset.make_batch(batch_idx);
    const Tensor out = model.forward(batch.images);
    const auto preds = SppNet::decode(out);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      const auto& sample = dataset.sample(batch_idx[i]);
      ScoredDetection det;
      det.confidence = preds[i].confidence;
      det.has_object = sample.label > 0.0f;
      det.iou = det.has_object ? box_iou(preds[i].box, sample.box) : 0.0f;
      result.detections.push_back(det);
    }
  }
  model.set_training(was_training);

  result.average_precision = average_precision(result.detections);
  result.accuracy = accuracy_at_threshold(result.detections, 0.5f);
  result.mean_iou = mean_iou_of_detections(result.detections, 0.5f);
  return result;
}

TrainHistory train_detector(Module& model, const geo::DrainageDataset& dataset,
                            const geo::Split& split,
                            const TrainConfig& config) {
  DCN_CHECK(!split.train.empty() && !split.test.empty())
      << "train/test split is empty (train " << split.train.size() << ", test "
      << split.test.size() << ")";

  Sgd optimizer(model.parameters(), config.sgd);
  Rng shuffle_rng(kShuffleSeed);
  model.set_training(true);

  TrainHistory history;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Step LR decay at the milestones.
    for (double milestone : kLrDecayMilestones) {
      if (epoch == static_cast<int>(milestone * config.epochs) && epoch > 0) {
        optimizer.config().learning_rate *= kLrDecayFactor;
        if (config.verbose) {
          DCN_LOG_INFO << "epoch " << epoch << ": lr -> "
                       << optimizer.config().learning_rate;
        }
      }
    }
    // Reshuffle the training order each epoch.
    std::vector<std::size_t> order = split.train;
    const auto perm = shuffle_rng.permutation(order.size());
    std::vector<std::size_t> shuffled(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      shuffled[i] = order[perm[i]];
    }

    WallTimer epoch_timer;
    double loss_sum = 0.0;
    double grad_norm_sum = 0.0;
    std::int64_t steps = 0;
    for (const auto& batch_idx :
         geo::DrainageDataset::batch_indices(shuffled, config.batch_size)) {
      const geo::Batch batch = dataset.make_batch(batch_idx);
      optimizer.zero_grad();
      const Tensor out = model.forward(batch.images);
      const LossResult loss =
          detection_loss(out, batch.labels, batch.boxes, kBoxLossWeight);
      (void)model.backward(loss.grad);
      grad_norm_sum += optimizer.grad_norm();
      optimizer.step();
      loss_sum += loss.value;
      ++steps;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = steps > 0 ? loss_sum / steps : 0.0;
    stats.grad_norm = steps > 0 ? grad_norm_sum / steps : 0.0;
    stats.seconds = epoch_timer.seconds();
    history.epochs.push_back(stats);
    if (config.verbose) {
      DCN_LOG_INFO << "epoch " << epoch << ": loss " << stats.mean_loss
                   << ", grad norm " << stats.grad_norm << ", "
                   << stats.seconds << " s";
    }
  }

  history.final_eval =
      evaluate_detector(model, dataset, split.test, config.batch_size);
  if (config.verbose) {
    DCN_LOG_INFO << "eval: AP " << history.final_eval.average_precision
                 << ", accuracy " << history.final_eval.accuracy
                 << ", mean IoU " << history.final_eval.mean_iou;
  }
  return history;
}

}  // namespace dcn::detect
