// train: detect::train_detector on SPP-Net #2 with bench_quant's recipe —
// 40 px patches, 384 px terrain, seed 2023, the paper's SGD settings,
// batch 20 — shortened to 8 epochs, then post-training int8 scoring of the
// held-out split, calibrated on bench_quant's calibration split. The conv, GEMM and
// pool layers also run backward here (transposed GEMMs, col2im, gradient
// writes, SGD updates), so an inference-only kernel change that slows
// training shows up.
//
// The recipe's data and weights stay pinned to seed 2023 whatever --seed
// is: AP over 21 held-out patches swings from 0.23 to 1.0 across seeds
// and the int8 gap crosses the 1-point budget on some, so only a pinned
// recipe gives an accuracy gate that cannot fail by chance. --seed seeds
// the scratch model of the layer replays.
//
// 8 epochs, not bench_quant's 12: a run pays ~30 s of cold tuning of the
// training shapes before its first step, and 12 epochs would not fit the
// benchmark's time budget. The shortened schedule reaches AP 0.3625 for
// fp32 and int8 alike (12 epochs: 0.83; 6 epochs: 0.02).
#include <cstdio>
#include <map>

#include "core/error.hpp"
#include "detect/calibration.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "models.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/sgd.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

constexpr std::uint64_t kRecipeSeed = 2023;  // bench_quant --seed
constexpr std::int64_t kPatch = 40;
constexpr std::int64_t kBatch = 20;
constexpr int kEpochs = 8;
constexpr std::int64_t kCalibrationImages = 8;
constexpr double kBoxLossWeight = 2.0;  // TrainConfig default
/// The 8-epoch recipe reaches AP 0.3625 for fp32 and int8.
constexpr double kApFloor = 0.30;
constexpr double kApBudgetPoints = 1.0;  // bench_quant --ap-budget
constexpr int kInt8Scorings = 3;
constexpr int kReplays = 3;

struct TrainState {
  dcn::geo::DrainageDataset dataset;
  dcn::geo::Split split;
  std::unique_ptr<dcn::detect::SppNet> net;  // the recipe's model
  dcn::Tensor calibration;

  dcn::geo::Batch train_batch(std::int64_t n) const {
    return dataset.make_batch(std::vector<std::size_t>(
        split.train.begin(), split.train.begin() + n));
  }
};

// `compact` keeps one batch of train and held-out samples (one step per
// epoch, no remainder batch): the profile of a workload that does not
// train, at a fraction of the tuning cost.
std::unique_ptr<TrainState> setup_train(Run& run, bool compact) {
  auto s = std::make_unique<TrainState>();
  {
    ScopedSpan span(run.tracer, "geo", "geo.synth");
    dcn::geo::DatasetConfig config;
    config.seed = kRecipeSeed;
    config.patch_size = kPatch;
    config.terrain.rows = config.terrain.cols = 384;
    s->dataset = dcn::geo::DrainageDataset::synthesize(config);
    s->split = s->dataset.split(0.8, 3);
    if (compact) {
      s->split.train.resize(kBatch);
      s->split.test.resize(kBatch);
    }
  }
  s->net = make_net(run, full_model(), kRecipeSeed + 7);
  std::vector<std::size_t> picks;
  for (const std::int64_t i : dcn::detect::calibration_split(
           static_cast<std::int64_t>(s->split.train.size()),
           kCalibrationImages, kRecipeSeed)) {
    picks.push_back(s->split.train[static_cast<std::size_t>(i)]);
  }
  s->calibration = s->dataset.make_batch(picks).images;

  // Every shape class a step, the evaluation and the int8 scoring use:
  // batch 20, the train and test remainders, the batch-8 calibration walk.
  // No step is taken, so the weights stay as seeded; train_detector zeroes
  // the gradients this leaves before its first step.
  std::vector<std::int64_t> sizes = {kBatch};
  for (const std::size_t n : {s->split.train.size(), s->split.test.size()}) {
    const auto rest = static_cast<std::int64_t>(n) % kBatch;
    if (rest > 0 && rest != sizes.back()) sizes.push_back(rest);
  }
  warm_up(run, [&] {
    s->net->set_training(true);
    for (const std::int64_t n : sizes) {
      const dcn::geo::Batch batch = s->train_batch(n);
      const dcn::Tensor out = s->net->forward(batch.images);
      (void)s->net->backward(
          dcn::detection_loss(out, batch.labels, batch.boxes, kBoxLossWeight)
              .grad);
    }
    auto int8 = int8_module(run, *s->net, s->calibration);
    for (const std::int64_t n : sizes) {
      (void)int8->forward(s->train_batch(n).images);
    }
  });
  return s;
}

struct Training {
  /// Wall time of each epoch: from its first step's forward to the next
  /// epoch's, the last one ending when train_detector switches to eval.
  std::vector<double> epochs;
  std::int64_t steps = 0;
  double seconds = 0.0;  // first step to the switch to eval
};

// Trains the recipe's model for `epochs` through a TracedModule.
Training train(Run& run, TrainState& s, int epochs) {
  TracedModule traced(*s.net, run.tracer, "detect", "detect.train");
  dcn::detect::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = kBatch;
  config.verbose = false;
  {
    ScopedSpan span(run.tracer, "detect", "detect.train_detector");
    (void)dcn::detect::train_detector(traced, s.dataset, s.split, config);
  }
  const auto per_epoch = static_cast<std::size_t>(
      (static_cast<std::int64_t>(s.split.train.size()) + kBatch - 1) / kBatch);
  const std::vector<double>& starts = traced.step_starts();
  DCN_CHECK(starts.size() == per_epoch * static_cast<std::size_t>(epochs))
      << "train_detector ran " << starts.size() << " steps, expected "
      << per_epoch * static_cast<std::size_t>(epochs);
  Training out;
  for (std::size_t e = 0; e < static_cast<std::size_t>(epochs); ++e) {
    const double end = e + 1 < static_cast<std::size_t>(epochs)
                           ? starts[(e + 1) * per_epoch]
                           : traced.eval_start();
    out.epochs.push_back(end - starts[e * per_epoch]);
  }
  out.steps = static_cast<std::int64_t>(starts.size());
  out.seconds = traced.eval_start() - starts.front();
  return out;
}

// Negates the objectness row of the detection head: the ranking inverts.
void perturb_head(dcn::detect::SppNet& net) {
  auto& head = dynamic_cast<dcn::Linear&>(net.head().layer(net.head().size() - 1));
  for (std::int64_t j = 0; j < head.in_features(); ++j) {
    head.weight()[j] = -head.weight()[j];
  }
  head.bias()[0] = -head.bias()[0];
}

// Forward then backward through a scratch net (seeded by --seed) layer by
// layer at batch 20, then one SGD step; medians over kReplays after a
// discarded first.
void report_nn_layers(Run& run, TrainState& s) {
  auto scratch = make_net(run, full_model(), run.seed);
  dcn::detect::SppNet& net = *scratch;
  net.set_training(true);
  std::vector<std::pair<dcn::Module*, std::string>> layers;
  int convs = 0;
  for (std::size_t i = 0; i < net.trunk().size(); ++i) {
    dcn::Module& layer = net.trunk().layer(i);
    std::string group = layer.name() == "ReLU" ? "relu" : "pool";
    if (dynamic_cast<dcn::Conv2d*>(&layer) != nullptr) {
      group = "conv" + std::to_string(convs++);
    }
    layers.emplace_back(&layer, group);
  }
  layers.emplace_back(&net.spp_layer(), "spp");
  int linears = 0;
  const std::size_t last = net.head().size() - 1;
  for (std::size_t i = 0; i < net.head().size(); ++i) {
    dcn::Module& layer = net.head().layer(i);
    std::string group = "relu";
    if (dynamic_cast<dcn::Linear*>(&layer) != nullptr) {
      group = i == last ? "head" : "fc" + std::to_string(linears++);
    }
    layers.emplace_back(&layer, group);
  }

  const dcn::geo::Batch batch = s.train_batch(kBatch);
  dcn::Sgd sgd(net.parameters(), dcn::SgdConfig{});
  std::map<std::string, std::vector<double>> fwd, bwd;
  std::vector<double> step;
  for (int rep = 0; rep <= kReplays; ++rep) {
    const std::int64_t op = run.next_op();
    std::map<std::string, double> f, b;
    sgd.zero_grad();
    dcn::Tensor x = batch.images;
    for (auto& [layer, group] : layers) {
      ScopedSpan span(run.tracer, "nn", "nn." + group + ".forward", op);
      const double t0 = now();
      x = layer->forward(x);
      f[group] += now() - t0;
    }
    dcn::Tensor g =
        dcn::detection_loss(x, batch.labels, batch.boxes, kBoxLossWeight).grad;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
      ScopedSpan span(run.tracer, "nn", "nn." + it->second + ".backward", op);
      const double t0 = now();
      g = it->first->backward(g);
      b[it->second] += now() - t0;
    }
    ScopedSpan span(run.tracer, "nn", "nn.sgd.step", op);
    const double t0 = now();
    sgd.step();
    if (rep == 0) continue;  // warm
    step.push_back(now() - t0);
    for (const auto& [group, sec] : f) fwd[group].push_back(sec);
    for (const auto& [group, sec] : b) bwd[group].push_back(sec);
  }
  for (const auto& [group, values] : fwd) {
    run.results.add(Kind::kLayer, "nn." + group + ".fwd_b20_ms",
                    median(values) * 1e3, "ms", "host", kReplays);
    run.results.add(Kind::kLayer, "nn." + group + ".bwd_b20_ms",
                    median(bwd[group]) * 1e3, "ms", "host", kReplays);
  }
  run.results.add(Kind::kLayer, "nn.sgd.step_ms", median(step) * 1e3, "ms",
                  "host", kReplays);
}

// Self time of a step covers batching, the loss and the SGD update.
void report_train_layers(Run& run, TrainState& s, const Training& training) {
  const double fwd = run.tracer.total("detect.train.forward").first;
  const double bwd = run.tracer.total("detect.train.backward").first;
  const double n = static_cast<double>(training.steps);
  run.results.add(Kind::kLayer, "detect.train.forward_ms_per_step",
                  fwd * 1e3 / n, "ms", "host", training.steps);
  run.results.add(Kind::kLayer, "detect.train.backward_ms_per_step",
                  bwd * 1e3 / n, "ms", "host", training.steps);
  run.results.add(Kind::kLayer, "detect.train.self_ms_per_step",
                  (training.seconds - fwd - bwd) * 1e3 / n, "ms", "host",
                  training.steps);
  report_nn_layers(run, s);
}

}  // namespace

void run_train(Run& run) {
  auto s = setup_train(run, false);

  run.begin_timed();
  const Training training = train(run, *s, kEpochs);
  run.results.count(training.steps, 0);
  if (run.injected("perturb-weight")) perturb_head(*s->net);
  const double ap_fp32 =
      dcn::detect::evaluate_detector(*s->net, s->dataset, s->split.test, kBatch)
          .average_precision;
  if (run.injected("perturb-int8-weight")) perturb_head(*s->net);
  auto int8 = int8_module(run, *s->net, s->calibration);
  std::vector<double> scorings;
  double ap_int8 = 0.0;
  for (int k = 0; k < kInt8Scorings; ++k) {
    ScopedSpan span(run.tracer, "detect", "detect.score.int8", run.next_op());
    const double t0 = now();
    const double ap = dcn::detect::evaluate_detector(*int8, s->dataset,
                                                     s->split.test, kBatch)
                          .average_precision;
    scorings.push_back(now() - t0);
    if (k == 0) ap_int8 = ap;
    run.results.check(ap == ap_int8, "int8 scoring " + std::to_string(k) +
                                         " gave AP " + std::to_string(ap) +
                                         ", first gave " +
                                         std::to_string(ap_int8));
  }
  run.end_timed();

  const auto train_samples = static_cast<double>(s->split.train.size());
  const auto test_samples = static_cast<double>(s->split.test.size());
  report_phase(run, "fp32", training.epochs,
               train_samples / median(training.epochs));
  report_phase(run, "int8", scorings, test_samples / median(scorings));
  const double gap_points = (ap_fp32 - ap_int8) * 100.0;
  run.results.check(ap_fp32 >= kApFloor,
                    "train: fp32 AP " + std::to_string(ap_fp32) +
                        " below the floor " + std::to_string(kApFloor));
  run.results.check(gap_points <= kApBudgetPoints,
                    "train: int8 AP " + std::to_string(ap_int8) + " is " +
                        std::to_string(gap_points) +
                        " points below fp32, budget " +
                        std::to_string(kApBudgetPoints));
  std::printf("train: %zu train / %zu test samples, %d epochs, AP fp32 %.4f "
              "int8 %.4f (floor %.2f, budget %.1f points)\n",
              s->split.train.size(), s->split.test.size(), kEpochs, ap_fp32,
              ap_int8, kApFloor, kApBudgetPoints);
  if (run.traced()) report_train_layers(run, *s, training);
}

void profile_train(Run& run) {
  ScopedSpan span(run.tracer, "bench", "profile.train");
  auto s = setup_train(run, true);
  report_train_layers(run, *s, train(run, *s, 1));
}

}  // namespace hostbench
