// Tests for the region-proposal baseline (R-CNN lite).
#include "detect/rcnn_lite.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dcn::detect {
namespace {

// Paint a synthetic 4-band patch with a vertical gray road and a horizontal
// dark-water stream crossing at (cy, cx).
Tensor planted_crossing(std::int64_t size, std::int64_t cy, std::int64_t cx) {
  Tensor img(Shape{4, size, size});
  // Vegetated background: R/G/B moderate, NIR high.
  for (std::int64_t i = 0; i < size * size; ++i) {
    img[0 * size * size + i] = 0.25f;
    img[1 * size * size + i] = 0.35f;
    img[2 * size * size + i] = 0.20f;
    img[3 * size * size + i] = 0.70f;
  }
  auto set_px = [&](std::int64_t r, std::int64_t c, float red, float green,
                    float blue, float nir) {
    img[0 * size * size + r * size + c] = red;
    img[1 * size * size + r * size + c] = green;
    img[2 * size * size + r * size + c] = blue;
    img[3 * size * size + r * size + c] = nir;
  };
  for (std::int64_t r = 0; r < size; ++r) {
    for (std::int64_t dc = -2; dc <= 2; ++dc) {
      if (cx + dc >= 0 && cx + dc < size) {
        set_px(r, cx + dc, 0.55f, 0.55f, 0.55f, 0.22f);  // road gray
      }
    }
  }
  for (std::int64_t c = 0; c < size; ++c) {
    for (std::int64_t dr = -1; dr <= 1; ++dr) {
      if (cy + dr >= 0 && cy + dr < size && std::abs(c - cx) > 2) {
        set_px(cy + dr, c, 0.10f, 0.14f, 0.18f, 0.05f);  // water
      }
    }
  }
  return img;
}

TEST(ProposeRegions, FindsPlantedCrossing) {
  const Tensor img = planted_crossing(64, 32, 32);
  const auto proposals = propose_regions(img);
  ASSERT_FALSE(proposals.empty());
  // The top proposal is near the planted crossing.
  const Proposal& top = proposals.front();
  EXPECT_NEAR(top.box[0], 0.5f, 0.15f);
  EXPECT_NEAR(top.box[1], 0.5f, 0.15f);
  EXPECT_NEAR(top.objectness, 1.0f, 1e-6f);  // normalized top score
}

TEST(ProposeRegions, EmptySceneYieldsNothing) {
  Tensor img(Shape{4, 64, 64});
  for (std::int64_t i = 0; i < 64 * 64; ++i) {
    img[0 * 4096 + i] = 0.25f;
    img[1 * 4096 + i] = 0.35f;
    img[2 * 4096 + i] = 0.20f;
    img[3 * 4096 + i] = 0.70f;
  }
  EXPECT_TRUE(propose_regions(img).empty());
}

TEST(ProposeRegions, RoadWithoutWaterYieldsNothing) {
  Tensor img = planted_crossing(64, 32, 32);
  // Erase the water: raise NIR everywhere water was painted.
  for (std::int64_t i = 0; i < 64 * 64; ++i) {
    if (img[3 * 4096 + i] < 0.1f) img[3 * 4096 + i] = 0.7f;
  }
  EXPECT_TRUE(propose_regions(img).empty());
}

TEST(ProposeRegions, NmsSeparatesDistinctCrossings) {
  // Two crossings far apart -> at least two surviving proposals.
  Tensor img = planted_crossing(96, 24, 24);
  const Tensor second = planted_crossing(96, 72, 72);
  // Merge the second crossing's road/water pixels in.
  for (std::int64_t i = 0; i < img.numel(); ++i) {
    if (second[i] != 0.25f && second[i] != 0.35f && second[i] != 0.20f &&
        second[i] != 0.70f) {
      img[i] = second[i];
    }
  }
  const auto proposals = propose_regions(img);
  EXPECT_GE(proposals.size(), 2u);
}

TEST(ProposeRegions, RespectsMaxProposals) {
  // A 4x4 grid of crossings 64 px apart: 16 well-separated candidates, of
  // which only the 8-proposal cap survives.
  Tensor img = planted_crossing(256, 32, 32);
  for (std::int64_t cy = 32; cy < 256; cy += 64) {
    for (std::int64_t cx = 32; cx < 256; cx += 64) {
      const Tensor other = planted_crossing(256, cy, cx);
      for (std::int64_t i = 0; i < img.numel(); ++i) {
        if (other[i] != 0.25f && other[i] != 0.35f && other[i] != 0.20f &&
            other[i] != 0.70f) {
          img[i] = other[i];
        }
      }
    }
  }
  EXPECT_EQ(propose_regions(img).size(), 8u);
}

TEST(ProposeRegions, RejectsWrongRank) {
  EXPECT_THROW(propose_regions(Tensor(Shape{64, 64})), dcn::Error);
  EXPECT_THROW(propose_regions(Tensor(Shape{3, 64, 64})), dcn::Error);
}

TEST(RcnnLiteDetector, ScoresProposalsWithSppNet) {
  Rng rng(1);
  SppNetConfig config = parse_notation(
      "C_{4,3,1}-P_{2,2}-SPP_{2,1}-F_{8}", 4);
  SppNet scorer(config, rng);
  RcnnLiteDetector detector(scorer);
  const Tensor img = planted_crossing(64, 32, 32);
  const Prediction pred = detector.detect(img);
  EXPECT_GE(pred.confidence, 0.0f);
  EXPECT_LE(pred.confidence, 1.0f);
  // With proposals present, the detector reports the top proposal's box.
  EXPECT_GT(pred.box[2], 0.0f);
}

TEST(RcnnLiteDetector, NoProposalsMeansZeroConfidence) {
  Rng rng(1);
  SppNetConfig config = parse_notation(
      "C_{4,3,1}-P_{2,2}-SPP_{2,1}-F_{8}", 4);
  SppNet scorer(config, rng);
  RcnnLiteDetector detector(scorer);
  Tensor empty(Shape{4, 64, 64});
  for (std::int64_t i = 0; i < 64 * 64; ++i) {
    empty[3 * 4096 + i] = 0.7f;  // vegetation NIR, nothing gray
  }
  const Prediction pred = detector.detect(empty);
  EXPECT_EQ(pred.confidence, 0.0f);
}

}  // namespace
}  // namespace dcn::detect
