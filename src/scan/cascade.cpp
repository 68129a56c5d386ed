#include "scan/cascade.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/error.hpp"
#include "detect/metrics.hpp"
#include "detect/sppnet.hpp"
#include "geo/patch.hpp"

namespace dcn::scan {
namespace {

/// Full-model confidence at or above which a survivor emits a detection.
constexpr double kDetectThreshold = 0.5;
/// World-space dedup radius (meters): of two confirmed detections within
/// it, only the higher-confidence one survives.
constexpr double kDedupRadius = 24.0;
/// Pixel distance within which a detection matches a ground-truth crossing
/// (recall bookkeeping only; AP uses box IoU).
constexpr double kMatchRadius = 16.0;

// Ground truth of one tile: the crossing whose center falls inside it,
// nearest to the tile center (ties -> lowest crossing index, a total
// deterministic order). The box uses the training-patch convention
// (patch.cpp make_positive): center offset over the tile origin, extent
// clamped to the tile side.
struct TileTruth {
  bool has_object = false;
  std::array<float, 4> box{};
};

TileTruth tile_truth(const geo::Tile& tile,
                     const std::vector<geo::Crossing>& crossings) {
  TileTruth truth;
  const double center_r = tile.row + tile.size / 2.0;
  const double center_c = tile.col + tile.size / 2.0;
  double best = 0.0;
  std::size_t pick = crossings.size();
  for (std::size_t k = 0; k < crossings.size(); ++k) {
    const geo::Crossing& crossing = crossings[k];
    if (crossing.row < tile.row || crossing.row >= tile.row + tile.size ||
        crossing.col < tile.col || crossing.col >= tile.col + tile.size) {
      continue;
    }
    const double d = std::hypot(crossing.row - center_r,
                                crossing.col - center_c);
    if (pick == crossings.size() || d < best) {
      best = d;
      pick = k;
    }
  }
  if (pick == crossings.size()) return truth;
  const geo::Crossing& crossing = crossings[pick];
  const auto size = static_cast<double>(tile.size);
  const double extent =
      std::min<double>(crossing.extent, tile.size) / size;
  truth.has_object = true;
  truth.box = {
      static_cast<float>(std::clamp(
          static_cast<double>(crossing.col - tile.col) / size, 0.0, 1.0)),
      static_cast<float>(std::clamp(
          static_cast<double>(crossing.row - tile.row) / size, 0.0, 1.0)),
      static_cast<float>(extent), static_cast<float>(extent)};
  return truth;
}

// Batched eval-mode inference of `model` over the listed tiles.
std::vector<detect::Prediction> predict_tiles(
    Module& model, const geo::Orthophoto& photo,
    const std::vector<geo::Tile>& tiles,
    const std::vector<std::size_t>& indices, std::int64_t batch_size) {
  std::vector<detect::Prediction> predictions;
  predictions.reserve(indices.size());
  for (std::size_t begin = 0; begin < indices.size();
       begin += static_cast<std::size_t>(batch_size)) {
    const std::size_t end = std::min(
        indices.size(), begin + static_cast<std::size_t>(batch_size));
    const auto n = static_cast<std::int64_t>(end - begin);
    const std::int64_t size = tiles[indices[begin]].size;
    Tensor batch(Shape{n, 4, size, size});
    for (std::size_t i = begin; i < end; ++i) {
      const Tensor image = geo::extract_tile(photo, tiles[indices[i]]);
      std::copy(image.data(), image.data() + image.numel(),
                batch.data() + static_cast<std::int64_t>(i - begin) *
                                   image.numel());
    }
    const Tensor out = model.forward(batch);
    for (const detect::Prediction& p : detect::SppNet::decode(out)) {
      predictions.push_back(p);
    }
  }
  return predictions;
}

void append_float(std::string& out, float v) {
  char buffer[32];
  // %.9g round-trips binary32 exactly: bit-identical scans render
  // byte-identical logs.
  std::snprintf(buffer, sizeof(buffer), "%.9g", static_cast<double>(v));
  out += buffer;
}

void append_world(std::string& out, double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);  // millimeter grid
  out += buffer;
}

}  // namespace

ScanResult scan_watershed(const geo::Orthophoto& photo,
                          const geo::GeoTransform& transform,
                          const std::vector<geo::Crossing>& crossings,
                          Module& screener, Module& full,
                          const CascadeOptions& options) {
  DCN_CHECK(options.batch_size > 0) << "batch size " << options.batch_size;
  screener.set_training(false);
  full.set_training(false);

  const auto tiles =
      geo::make_tiles(photo.rows(), photo.cols(), options.tile_size,
                      options.overlap, transform);
  ScanResult result;
  result.tiles = static_cast<std::int64_t>(tiles.size());
  result.scores.resize(tiles.size());

  // Stage 1: screen every tile.
  std::vector<std::size_t> all(tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) all[i] = i;
  const auto screened =
      predict_tiles(screener, photo, tiles, all, options.batch_size);

  std::vector<std::size_t> confirm;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    TileScore& score = result.scores[i];
    score.tile = static_cast<std::int64_t>(i);
    score.row = tiles[i].row;
    score.col = tiles[i].col;
    score.screener_confidence = screened[i].confidence;
    score.survived = static_cast<double>(score.screener_confidence) >=
                     options.threshold;
    const TileTruth truth = tile_truth(tiles[i], crossings);
    score.has_object = truth.has_object;
    if (score.has_object) ++result.positives;
    if (score.survived) ++result.survivors;
    if (score.survived || options.evaluate_all) confirm.push_back(i);
  }

  // Stage 2: the full model confirms survivors (all tiles in
  // evaluate_all / calibration mode).
  const auto confirmed =
      predict_tiles(full, photo, tiles, confirm, options.batch_size);
  for (std::size_t j = 0; j < confirm.size(); ++j) {
    TileScore& score = result.scores[confirm[j]];
    score.full_evaluated = true;
    score.full_confidence = confirmed[j].confidence;
    score.box = confirmed[j].box;
    if (score.has_object) {
      score.iou = detect::box_iou(score.box,
                                  tile_truth(tiles[confirm[j]], crossings).box);
    }
  }

  // Confirmed detections -> world coordinates -> overlap dedup.
  std::vector<ScanDetection> raw;
  for (const TileScore& score : result.scores) {
    if (!score.survived || !score.full_evaluated) continue;
    if (static_cast<double>(score.full_confidence) < kDetectThreshold) {
      continue;
    }
    ScanDetection detection;
    detection.tile = score.tile;
    detection.confidence = score.full_confidence;
    const auto [wx, wy] = geo::detection_to_world(
        tiles[static_cast<std::size_t>(score.tile)], score.box.data(),
        transform);
    detection.world_x = wx;
    detection.world_y = wy;
    const auto [pr, pc] = transform.world_to_pixel(wx, wy);
    for (const geo::Crossing& crossing : crossings) {
      if (std::hypot(crossing.row - pr, crossing.col - pc) <= kMatchRadius) {
        detection.matched = true;
        break;
      }
    }
    raw.push_back(detection);
  }
  result.detections = dedupe_detections(std::move(raw), kDedupRadius);

  if (result.tiles > 0) {
    result.negative_fraction =
        1.0 - static_cast<double>(result.positives) /
                  static_cast<double>(result.tiles);
    result.survivor_fraction = static_cast<double>(result.survivors) /
                               static_cast<double>(result.tiles);
  }
  result.cascade_ap =
      cascade_average_precision(result.scores, options.threshold);
  if (options.evaluate_all) {
    result.full_ap = full_average_precision(result.scores);
  }
  return result;
}

double cascade_average_precision(const std::vector<TileScore>& scores,
                                 double threshold) {
  std::vector<detect::ScoredDetection> detections;
  detections.reserve(scores.size());
  for (const TileScore& score : scores) {
    detect::ScoredDetection d;
    const bool passed =
        static_cast<double>(score.screener_confidence) >= threshold &&
        score.full_evaluated;
    d.confidence = passed ? score.full_confidence : 0.0f;
    d.has_object = score.has_object;
    d.iou = passed ? score.iou : 0.0f;
    detections.push_back(d);
  }
  return detect::average_precision(detections);
}

double full_average_precision(const std::vector<TileScore>& scores) {
  std::vector<detect::ScoredDetection> detections;
  detections.reserve(scores.size());
  for (const TileScore& score : scores) {
    detect::ScoredDetection d;
    d.confidence = score.full_evaluated ? score.full_confidence : 0.0f;
    d.has_object = score.has_object;
    d.iou = score.full_evaluated ? score.iou : 0.0f;
    detections.push_back(d);
  }
  return detect::average_precision(detections);
}

std::vector<ScanDetection> dedupe_detections(
    std::vector<ScanDetection> detections, double radius) {
  std::sort(detections.begin(), detections.end(),
            [](const ScanDetection& a, const ScanDetection& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              return a.tile < b.tile;
            });
  std::vector<ScanDetection> kept;
  for (const ScanDetection& detection : detections) {
    bool duplicate = false;
    for (const ScanDetection& winner : kept) {
      if (std::hypot(detection.world_x - winner.world_x,
                     detection.world_y - winner.world_y) <= radius) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) kept.push_back(detection);
  }
  return kept;
}

std::string scan_to_csv(const ScanResult& result) {
  std::string out =
      "tile,row,col,screener_conf,survived,full_eval,full_conf,cx,cy,w,h,"
      "has_object,iou\n";
  for (const TileScore& score : result.scores) {
    out += std::to_string(score.tile);
    out += ',';
    out += std::to_string(score.row);
    out += ',';
    out += std::to_string(score.col);
    out += ',';
    append_float(out, score.screener_confidence);
    out += ',';
    out += score.survived ? '1' : '0';
    out += ',';
    out += score.full_evaluated ? '1' : '0';
    out += ',';
    append_float(out, score.full_confidence);
    for (const float v : score.box) {
      out += ',';
      append_float(out, v);
    }
    out += ',';
    out += score.has_object ? '1' : '0';
    out += ',';
    append_float(out, score.iou);
    out += '\n';
  }
  return out;
}

std::string detections_to_csv(const ScanResult& result) {
  std::string out = "rank,tile,world_x,world_y,confidence,matched\n";
  for (std::size_t i = 0; i < result.detections.size(); ++i) {
    const ScanDetection& detection = result.detections[i];
    out += std::to_string(i);
    out += ',';
    out += std::to_string(detection.tile);
    out += ',';
    append_world(out, detection.world_x);
    out += ',';
    append_world(out, detection.world_y);
    out += ',';
    append_float(out, detection.confidence);
    out += ',';
    out += detection.matched ? '1' : '0';
    out += '\n';
  }
  return out;
}

}  // namespace dcn::scan
