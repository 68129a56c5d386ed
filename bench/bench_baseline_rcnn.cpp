// Baseline comparison (§8.1 and §2.2).
//
// The paper cites a faster R-CNN reference on the same watershed reaching
// accuracy 0.882 with mean IoU 0.668, and motivates SPP-Net by the
// crop/warp compromise fixed-input CNNs must make. This bench trains three
// detectors on the same synthetic dataset and compares them:
//   - SPP-Net (the paper's approach),
//   - a fixed-input CNN with identical trunk (warp baseline),
//   - R-CNN lite: heuristic region proposals scored by the trained SPP-Net
//     (a two-stage detector in the R-CNN mold).
#include <cstdio>

#include "core/cli.hpp"
#include "core/csv.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "detect/fixed_cnn.hpp"
#include "detect/imageops.hpp"
#include "detect/rcnn_lite.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_baseline_rcnn", "SPP-Net vs baselines (§8.1)");
  flags.add_int("seed", 2022, "seed");
  flags.add_int("patch", 56, "patch size");
  flags.add_int("worlds", 2, "synthetic watersheds");
  flags.add_int("epochs", 24, "training epochs");
  flags.add_string("csv", "baselines.csv", "CSV export path");
  if (!flags.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kWarn);

  geo::DatasetConfig data_config;
  data_config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  data_config.num_worlds = static_cast<int>(flags.get_int("worlds"));
  data_config.patch_size = flags.get_int("patch");
  data_config.terrain.rows = data_config.terrain.cols = 512;
  data_config.render.culvert_contrast = 0.55;  // match bench_table1 difficulty
  data_config.render.sensor_noise = 0.04;
  data_config.render.canopy_occlusion = 0.5;
  const auto dataset = geo::DrainageDataset::synthesize(data_config);
  const geo::Split split = dataset.split(0.8, 3);
  std::printf(
      "Baseline comparison on %zu synthetic patches (%zu positive)\n"
      "paper reference: faster R-CNN accuracy 0.882, IoU 0.668 (§8.1)\n\n",
      dataset.size(), dataset.num_positives());

  detect::TrainConfig train_config;
  train_config.epochs = static_cast<int>(flags.get_int("epochs"));
  train_config.verbose = false;

  TextTable table({"Detector", "AP", "Accuracy", "Mean IoU"});
  CsvWriter csv({"detector", "ap", "accuracy", "mean_iou"});

  // --- SPP-Net (trained once, reused by R-CNN lite as the scorer).
  Rng rng_spp(7);
  detect::SppNet sppnet(detect::original_sppnet(), rng_spp);
  const auto spp_history =
      detect::train_detector(sppnet, dataset, split, train_config);
  table.add_row({"SPP-Net (ours)",
                 format_percent(spp_history.final_eval.average_precision),
                 format_percent(spp_history.final_eval.accuracy),
                 format_double(spp_history.final_eval.mean_iou, 3)});
  csv.add_row({"sppnet",
               format_double(spp_history.final_eval.average_precision, 4),
               format_double(spp_history.final_eval.accuracy, 4),
               format_double(spp_history.final_eval.mean_iou, 4)});
  std::printf("[1/3] SPP-Net trained\n");

  // --- Fixed-input CNN (same trunk, Flatten instead of SPP).
  Rng rng_fixed(7);
  detect::FixedInputCnn fixed(detect::original_sppnet(),
                              data_config.patch_size, rng_fixed);
  const auto fixed_history =
      detect::train_detector(fixed, dataset, split, train_config);
  table.add_row({"Fixed-input CNN (crop/warp)",
                 format_percent(fixed_history.final_eval.average_precision),
                 format_percent(fixed_history.final_eval.accuracy),
                 format_double(fixed_history.final_eval.mean_iou, 3)});
  csv.add_row({"fixed_cnn",
               format_double(fixed_history.final_eval.average_precision, 4),
               format_double(fixed_history.final_eval.accuracy, 4),
               format_double(fixed_history.final_eval.mean_iou, 4)});
  std::printf("[2/3] fixed-input CNN trained\n");

  // --- R-CNN lite: proposals + the trained SPP-Net as crop scorer.
  detect::RcnnLiteDetector rcnn(sppnet);
  std::vector<detect::ScoredDetection> detections;
  for (std::size_t idx : split.test) {
    const auto& sample = dataset.sample(idx);
    const detect::Prediction pred = rcnn.detect(sample.image);
    detect::ScoredDetection det;
    det.confidence = pred.confidence;
    det.has_object = sample.label > 0.0f;
    det.iou = det.has_object ? detect::box_iou(pred.box, sample.box) : 0.0f;
    detections.push_back(det);
  }
  const double rcnn_ap = detect::average_precision(detections);
  const double rcnn_acc = detect::accuracy_at_threshold(detections, 0.25f);
  const double rcnn_iou = detect::mean_iou_of_detections(detections, 0.25f);
  table.add_row({"R-CNN lite (proposals + SPP scorer)",
                 format_percent(rcnn_ap), format_percent(rcnn_acc),
                 format_double(rcnn_iou, 3)});
  csv.add_row({"rcnn_lite", format_double(rcnn_ap, 4),
               format_double(rcnn_acc, 4), format_double(rcnn_iou, 4)});
  table.add_row({"faster R-CNN (paper reference)", "-", "88.2%", "0.668"});
  csv.add_row({"faster_rcnn_paper_ref", "", "0.882", "0.668"});
  std::printf("[3/3] R-CNN lite evaluated\n\n");

  std::printf("%s", table.to_string().c_str());

  // --- Multi-scale robustness (the §2.2 motivation for SPP): evaluate
  // both trained detectors on rescaled test patches. SPP-Net consumes each
  // scale natively; the fixed-input CNN must warp back to its training
  // resolution. Normalized boxes are scale-invariant, so AP is comparable.
  std::printf("\nMulti-scale evaluation (AP at rescaled test inputs):\n\n");
  TextTable scale_table({"Input scale", "SPP-Net AP", "Fixed-input CNN AP"});
  double spp_off_scale = 0.0;
  double fixed_off_scale = 0.0;
  double spp_native = 0.0;
  double fixed_native = 0.0;
  for (double scale : {0.75, 1.0, 1.25}) {
    const auto scaled_size = static_cast<std::int64_t>(
        static_cast<double>(data_config.patch_size) * scale);
    auto eval_at_scale = [&](Module& detector) {
      std::vector<detect::ScoredDetection> dets;
      for (std::size_t idx : split.test) {
        const auto& s = dataset.sample(idx);
        const Tensor resized =
            detect::bilinear_resize(s.image, scaled_size, scaled_size);
        Tensor batch(Shape{1, resized.dim(0), scaled_size, scaled_size});
        std::copy(resized.data(), resized.data() + resized.numel(),
                  batch.data());
        const bool was_training = detector.is_training();
        detector.set_training(false);
        const auto preds = detect::SppNet::decode(detector.forward(batch));
        detector.set_training(was_training);
        detect::ScoredDetection det;
        det.confidence = preds[0].confidence;
        det.has_object = s.label > 0.0f;
        det.iou = det.has_object ? detect::box_iou(preds[0].box, s.box)
                                 : 0.0f;
        dets.push_back(det);
      }
      return detect::average_precision(dets);
    };
    const double spp_ap = eval_at_scale(sppnet);
    const double fixed_ap = eval_at_scale(fixed);
    if (scale == 1.0) {
      spp_native = spp_ap;
      fixed_native = fixed_ap;
    } else {
      spp_off_scale += spp_ap / 2.0;
      fixed_off_scale += fixed_ap / 2.0;
    }
    scale_table.add_row({format_double(scale, 2), format_percent(spp_ap),
                         format_percent(fixed_ap)});
  }
  std::printf("%s", scale_table.to_string().c_str());
  if (spp_native - spp_off_scale < fixed_native - fixed_off_scale) {
    std::printf(
        "\nreading: SPP-Net loses less AP off its training scale than the "
        "warp baseline — §2.2's argument for spatial pyramid pooling.\n");
  } else {
    std::printf(
        "\nreading: at this single-scale training budget the warp baseline "
        "is the more scale-robust detector — warping re-normalizes object "
        "scale back to the training distribution, while max-pooled SPP "
        "features shift with scale. He et al. realize SPP's multi-scale "
        "advantage by training at multiple input sizes, which this "
        "reduced-budget bench does not do (see --epochs/--worlds).\n");
  }

  csv.write(flags.get_string("csv"));
  std::printf("\nCSV written to %s\n", flags.get_string("csv").c_str());
  return 0;
}
