#include "detect/rcnn_lite.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "detect/imageops.hpp"

namespace dcn::detect {
namespace {

/// Proposal window side as a fraction of the patch side.
constexpr double kWindowFraction = 0.22;
/// Non-maximum-suppression radius as a fraction of the patch side.
constexpr double kNmsRadius = 0.18;
/// Maximum proposals returned per image.
constexpr int kMaxProposals = 8;

// Per-pixel crossing-ness: gray road surface (low band spread, mid-high
// brightness, low NIR) within a small radius of dark open water (very low
// NIR). Both signatures are spectral only — class-agnostic like an RPN's
// objectness.
Tensor response_map(const Tensor& image) {
  const std::int64_t h = image.dim(1);
  const std::int64_t w = image.dim(2);
  const float* red = image.data();
  const float* green = image.data() + h * w;
  const float* blue = image.data() + 2 * h * w;
  const float* nir = image.data() + 3 * h * w;

  Tensor road(Shape{h, w});
  Tensor water(Shape{h, w});
  for (std::int64_t i = 0; i < h * w; ++i) {
    const float brightness = (red[i] + green[i] + blue[i]) / 3.0f;
    const float spread =
        std::max({red[i], green[i], blue[i]}) -
        std::min({red[i], green[i], blue[i]});
    const bool gray = spread < 0.09f && brightness > 0.40f && nir[i] < 0.40f;
    road[i] = gray ? 1.0f : 0.0f;
    water[i] = nir[i] < 0.15f ? 1.0f : 0.0f;
  }

  // Response = road presence with water within a 5-pixel disk.
  Tensor response(Shape{h, w});
  constexpr std::int64_t radius = 5;
  for (std::int64_t r = 0; r < h; ++r) {
    for (std::int64_t c = 0; c < w; ++c) {
      if (road[r * w + c] == 0.0f) continue;
      float near_water = 0.0f;
      for (std::int64_t dr = -radius; dr <= radius && near_water == 0.0f;
           ++dr) {
        for (std::int64_t dc = -radius; dc <= radius; ++dc) {
          const std::int64_t rr = r + dr;
          const std::int64_t cc = c + dc;
          if (rr < 0 || rr >= h || cc < 0 || cc >= w) continue;
          if (water[rr * w + cc] > 0.0f) {
            near_water = 1.0f;
            break;
          }
        }
      }
      response[r * w + c] = near_water;
    }
  }
  return response;
}

}  // namespace

std::vector<Proposal> propose_regions(const Tensor& image) {
  DCN_CHECK(image.rank() == 3 && image.dim(0) == 4)
      << "propose_regions expects [4, H, W]";
  const std::int64_t h = image.dim(1);
  const std::int64_t w = image.dim(2);
  const Tensor response = response_map(image);

  // Integrate the response over the proposal window at a coarse stride and
  // keep local maxima (greedy NMS by center distance).
  const auto win = std::max<std::int64_t>(
      8, static_cast<std::int64_t>(kWindowFraction * std::min(h, w)));
  const std::int64_t stride = std::max<std::int64_t>(2, win / 4);

  struct Candidate {
    std::int64_t r, c;
    float score;
  };
  std::vector<Candidate> candidates;
  for (std::int64_t r = 0; r + win <= h; r += stride) {
    for (std::int64_t c = 0; c + win <= w; c += stride) {
      float score = 0.0f;
      for (std::int64_t dr = 0; dr < win; ++dr) {
        for (std::int64_t dc = 0; dc < win; ++dc) {
          score += response[(r + dr) * w + (c + dc)];
        }
      }
      if (score > 0.0f) candidates.push_back({r, c, score});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });

  const double nms = kNmsRadius * static_cast<double>(std::min(h, w));
  std::vector<Proposal> proposals;
  const float max_score =
      candidates.empty() ? 1.0f : candidates.front().score;
  for (const Candidate& cand : candidates) {
    if (static_cast<int>(proposals.size()) >= kMaxProposals) break;
    const double cy = (cand.r + win / 2.0) / h;
    const double cx = (cand.c + win / 2.0) / w;
    bool suppressed = false;
    for (const Proposal& kept : proposals) {
      const double dr = (kept.box[1] - cy) * h;
      const double dc = (kept.box[0] - cx) * w;
      if (std::sqrt(dr * dr + dc * dc) < nms) {
        suppressed = true;
        break;
      }
    }
    if (suppressed) continue;
    Proposal p;
    p.box = {static_cast<float>(cx), static_cast<float>(cy),
             static_cast<float>(static_cast<double>(win) / w),
             static_cast<float>(static_cast<double>(win) / h)};
    p.objectness = cand.score / max_score;
    proposals.push_back(p);
  }
  return proposals;
}

Prediction RcnnLiteDetector::detect(const Tensor& image) {
  const auto proposals = propose_regions(image);
  Prediction best;
  for (const Proposal& proposal : proposals) {
    // Widen the crop slightly so the scorer sees context; SPP accepts the
    // resulting variable crop size directly.
    std::array<float, 4> wide = proposal.box;
    wide[2] = std::min(1.0f, wide[2] * 1.5f);
    wide[3] = std::min(1.0f, wide[3] * 1.5f);
    const Tensor crop = crop_box(image, wide.data());
    Tensor batch(Shape{1, crop.dim(0), crop.dim(1), crop.dim(2)});
    std::copy(crop.data(), crop.data() + crop.numel(), batch.data());
    const auto preds = scorer_->predict(batch);
    const float confidence = preds[0].confidence * proposal.objectness;
    if (confidence > best.confidence) {
      best.confidence = confidence;
      best.box = proposal.box;
    }
  }
  return best;
}

}  // namespace dcn::detect
