// Early-exit cascade scan of a whole watershed.
//
// The paper's production shape is not per-patch queries but continuous
// scanning of entire watersheds — overwhelmingly negative tiles — under a
// hard accuracy constraint. Following the input-adaptive compute argument
// of latency-aware spatial-wise dynamic networks, the scan spends
// full-model inference only where the input demands it:
//
//   stage 1  a tiny (NAS-selected, usually int8) screener scores every
//            tile from geo::make_tiles; tiles below the confidence
//            threshold are rejected — no further compute;
//   stage 2  the full-accuracy SPP-Net confirms the survivors; confirmed
//            detections map to world coordinates via detection_to_world
//            and are deduplicated across tile overlap.
//
// Accuracy accounting treats a rejected tile as a zero-confidence
// detection, so the cascade's AP is measured on *all* tiles against the
// same ground truth as the full model's — the screener can only lose
// recall, never hide it (see calibrate.hpp for the constrained threshold
// choice).
//
// Determinism contract: a scan is a pure function of (photo, crossings,
// model weights, options). Inference runs on the tensor engine, which is
// bit-identical across thread counts, so scan_to_csv / detections_to_csv
// reproduce byte-for-byte at any set_num_threads value — and trivially at
// any serving replica count, because detection results never flow through
// the serving simulation (pipeline.hpp times the scan; it does not score
// it).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "geo/crossings.hpp"
#include "geo/render.hpp"
#include "geo/tiling.hpp"
#include "nn/module.hpp"

namespace dcn::scan {

struct CascadeOptions {
  std::int64_t tile_size = 48;
  /// Fraction of the tile side shared between neighbors (make_tiles).
  double overlap = 0.25;
  /// Stage-1 gate: tiles whose screener confidence falls below this never
  /// reach the full model. Calibrated, not hand-picked (calibrate.hpp).
  double threshold = 0.5;
  /// Full-model confidence above which a survivor emits a detection.
  double detect_threshold = 0.5;
  /// Inference minibatch for both stages (results are batch-invariant;
  /// this is purely a working-set knob).
  std::int64_t batch_size = 32;
  /// World-space dedup radius (meters): of two confirmed detections
  /// within it, only the higher-confidence one survives.
  double dedup_radius = 24.0;
  /// Pixel distance within which a detection matches a ground-truth
  /// crossing (recall bookkeeping only; AP uses box IoU).
  double match_radius = 16.0;
  /// Run the full model on *every* tile, not just survivors. Calibration
  /// and AP-reference mode: per-tile full-model scores for any threshold,
  /// plus the full-model AP the constraint is measured against.
  bool evaluate_all = false;
};

/// Per-tile outcome, in geo::make_tiles order.
struct TileScore {
  std::int64_t tile = 0;
  std::int64_t row = 0;  // tile origin (pixels)
  std::int64_t col = 0;
  float screener_confidence = 0.0f;
  /// screener_confidence >= threshold (stage-2 eligibility).
  bool survived = false;
  /// Whether the full model actually scored this tile (survivors always;
  /// every tile under evaluate_all).
  bool full_evaluated = false;
  float full_confidence = 0.0f;
  /// Full-model box (cx, cy, w, h normalized within the tile).
  std::array<float, 4> box{};
  /// Ground truth: a crossing center lies inside this tile.
  bool has_object = false;
  /// IoU of the full-model box vs that crossing's box (0 unless
  /// full_evaluated and has_object).
  float iou = 0.0f;
};

/// One confirmed, deduplicated detection in world coordinates.
struct ScanDetection {
  std::int64_t tile = 0;
  double world_x = 0.0;
  double world_y = 0.0;
  float confidence = 0.0f;
  /// Within match_radius of a ground-truth crossing.
  bool matched = false;
};

struct ScanResult {
  std::vector<TileScore> scores;          // one per tile
  std::vector<ScanDetection> detections;  // deduped, confidence-descending
  std::int64_t tiles = 0;
  std::int64_t survivors = 0;
  std::int64_t positives = 0;  // tiles containing a crossing center
  double negative_fraction = 0.0;
  double survivor_fraction = 0.0;
  /// Cascade AP over all tiles (rejected tiles as zero-confidence).
  double cascade_ap = 0.0;
  /// Full-model AP over all tiles (meaningful only under evaluate_all).
  double full_ap = 0.0;
};

/// Run the two-tier cascade over the whole photo. `screener` and `full`
/// are [N,C,H,W] -> [N,5] detection modules (SppNet / QuantizedSppNet);
/// both are switched to eval mode. Ground truth comes from `crossings`.
ScanResult scan_watershed(const geo::Orthophoto& photo,
                          const geo::GeoTransform& transform,
                          const std::vector<geo::Crossing>& crossings,
                          Module& screener, Module& full,
                          const CascadeOptions& options);

/// Cascade AP at an arbitrary stage-1 threshold: tiles whose screener
/// confidence clears `threshold` (and were full-evaluated) score at the
/// full model's confidence, everything else at zero. Exact for any
/// threshold when the scores come from an evaluate_all scan; otherwise
/// only thresholds >= the scan's own gate are meaningful.
double cascade_average_precision(const std::vector<TileScore>& scores,
                                 double threshold);

/// Full-model AP over the same tiles (requires evaluate_all scores).
double full_average_precision(const std::vector<TileScore>& scores);

/// Greedy world-space dedup across tile overlap: sort by (confidence
/// descending, tile ascending), keep a detection iff no already-kept one
/// lies within `radius` meters. Deterministic total order.
std::vector<ScanDetection> dedupe_detections(
    std::vector<ScanDetection> detections, double radius);

/// Canonical byte-stable CSV of the per-tile scan log. Floats are
/// rendered with round-trip precision, so bit-identical scans produce
/// byte-identical CSVs (the determinism contract's observable).
std::string scan_to_csv(const ScanResult& result);

/// Canonical byte-stable CSV of the deduplicated detections.
std::string detections_to_csv(const ScanResult& result);

}  // namespace dcn::scan
