#include "scan/screener.hpp"

#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "detect/calibration.hpp"
#include "detect/quantized_sppnet.hpp"
#include "detect/sppnet.hpp"

namespace dcn::scan {
namespace {

/// Accuracy floor a(n) for select_constrained_precision. Deliberately
/// permissive: the screener only needs to *rank* tiles (the calibrator
/// enforces the cascade's real constraint), so the floor merely rules out
/// degenerate candidates.
constexpr double kApFloor = 0.15;
/// Training images that calibrate each int8 candidate.
constexpr std::int64_t kCalibrationImages = 8;

}  // namespace

std::vector<nas::SearchPoint> ScreenerSpace::enumerate() const {
  std::vector<nas::SearchPoint> points;
  points.reserve(conv_kernels.size() * spp_levels.size() * fc_widths.size());
  for (const std::int64_t kernel : conv_kernels) {
    for (const std::int64_t level : spp_levels) {
      for (const std::int64_t width : fc_widths) {
        nas::SearchPoint point;
        point.conv1_kernel = kernel;
        point.spp_first_level = level;
        point.fc_sizes = {width};
        points.push_back(point);
      }
    }
  }
  return points;
}

detect::SppNetConfig materialize_screener(const nas::SearchPoint& point,
                                          std::int64_t trunk_width,
                                          std::int64_t in_channels) {
  DCN_CHECK(trunk_width > 0) << "trunk width " << trunk_width;
  detect::SppNetConfig config;
  config.in_channels = in_channels;
  config.name = "screener-w" + std::to_string(trunk_width) + "-k" +
                std::to_string(point.conv1_kernel) + "-l" +
                std::to_string(point.spp_first_level);
  for (const std::int64_t width : point.fc_sizes) {
    config.name += "-f" + std::to_string(width);
  }
  // Stride-2 stem: quarters the spatial work of every downstream stage.
  // The screener ranks tiles, it does not localize — coarse features are
  // the point, and the cost model rewards it ~4x.
  detect::TrunkStage conv1;
  conv1.kind = detect::TrunkStage::Kind::kConv;
  conv1.conv = {trunk_width, point.conv1_kernel, 2};
  detect::TrunkStage pool;
  pool.kind = detect::TrunkStage::Kind::kPool;
  pool.pool = {2, 2};
  detect::TrunkStage conv2;
  conv2.kind = detect::TrunkStage::Kind::kConv;
  conv2.conv = {2 * trunk_width, 3, 1};
  config.trunk = {conv1, pool, conv2, pool};
  for (std::int64_t level = point.spp_first_level; level >= 1; --level) {
    config.spp_levels.push_back(level);
  }
  config.fc_sizes = point.fc_sizes;
  return config;
}

ScreenerSelection select_screener(const geo::DrainageDataset& dataset,
                                  const geo::Split& split,
                                  const ScreenerSearchConfig& config) {
  DCN_CHECK(dataset.size() > 0) << "empty dataset";
  const std::int64_t in_channels = dataset.sample(0).image.dim(0);
  const auto points = config.space.enumerate();
  DCN_CHECK(!points.empty()) << "empty screener space";

  // Grid campaign: profile the fused graph on the simulated device, train
  // briefly as the accuracy proxy. Weight seeds derive from (seed, trial
  // index) so the campaign is reproducible trial by trial.
  ScreenerSelection selection;
  std::vector<std::unique_ptr<detect::SppNet>> models;
  models.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const detect::SppNetConfig model_config = materialize_screener(
        points[i], config.space.trunk_width, in_channels);
    nas::TrialMetrics metrics = nas::profile_architecture(
        model_config, config.runner, static_cast<int>(i));
    Rng rng(config.seed + i);
    auto model = std::make_unique<detect::SppNet>(model_config, rng);
    (void)detect::train_detector(*model, dataset, split, config.train);
    metrics.average_precision =
        detect::evaluate_detector(*model, dataset, split.test)
            .average_precision;
    models.push_back(std::move(model));

    nas::Trial trial;
    trial.index = static_cast<int>(i);
    trial.point = points[i];
    trial.metrics = metrics;
    selection.database.add(trial);
  }

  // Expand into {fp32, int8} deployment candidates. The int8 evaluator
  // re-profiles at int8 kernels/schedule and re-scores the quantized
  // model's AP on the held-out split; the quantized instances are cached
  // so the winner can be returned without re-quantizing.
  std::vector<std::unique_ptr<detect::QuantizedSppNet>> quantized(
      points.size());
  const nas::QuantizeEvaluator evaluator =
      [&](const nas::Trial& trial) -> nas::TrialMetrics {
    nas::RunnerConfig int8_runner = config.runner;
    int8_runner.precision = simgpu::Precision::kInt8;
    int8_runner.verbose = false;
    const detect::SppNetConfig model_config = materialize_screener(
        trial.point, config.space.trunk_width, in_channels);
    nas::TrialMetrics metrics = nas::profile_architecture(
        model_config, int8_runner, trial.index, 1);
    std::vector<std::size_t> picks;
    for (const std::int64_t i : detect::calibration_split(
             static_cast<std::int64_t>(split.train.size()),
             kCalibrationImages, config.seed)) {
      picks.push_back(split.train[static_cast<std::size_t>(i)]);
    }
    auto& model = *models[static_cast<std::size_t>(trial.index)];
    auto q = std::make_unique<detect::QuantizedSppNet>(
        model, dataset.make_batch(picks).images);
    metrics.average_precision =
        detect::evaluate_detector(*q, dataset, split.test).average_precision;
    quantized[static_cast<std::size_t>(trial.index)] = std::move(q);
    return metrics;
  };
  selection.candidates =
      nas::expand_precisions(selection.database, evaluator);

  auto chosen =
      nas::select_constrained_precision(selection.candidates, kApFloor);
  if (!chosen) {
    // No candidate clears the floor: fall back to the most accurate one
    // so callers still get a working screener (the calibrator will then
    // keep the threshold low — correct, just slower).
    DCN_LOG_WARN << "no screener candidate clears AP floor " << kApFloor
                 << "; falling back to best AP";
    for (const nas::PrecisionCandidate& candidate : selection.candidates) {
      if (!chosen || candidate.metrics.average_precision >
                         chosen->metrics.average_precision) {
        chosen = candidate;
      }
    }
  }
  DCN_CHECK(chosen.has_value()) << "screener selection produced no candidate";
  selection.chosen = *chosen;
  selection.config = materialize_screener(
      chosen->trial.point, config.space.trunk_width, in_channels);
  const auto index = static_cast<std::size_t>(chosen->trial.index);
  if (chosen->precision == simgpu::Precision::kInt8) {
    selection.model = std::move(quantized[index]);
  } else {
    selection.model = std::move(models[index]);
  }
  return selection;
}

}  // namespace dcn::scan
