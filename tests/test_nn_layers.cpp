// Forward-pass tests for nn layers (backward is covered by test_gradcheck),
// plus property sweeps over the SPP output-size and adaptive-pool coverage
// laws.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/spp.hpp"

namespace dcn {
namespace {

TEST(Conv2d, OutputShapeSamePadding) {
  Rng rng(1);
  Conv2d conv(4, 8, 3, 1, rng);  // padding = 1
  Tensor x(Shape{2, 4, 10, 10});
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 8, 10, 10}));
}

TEST(Conv2d, OutputShapeStride2) {
  Rng rng(1);
  Conv2d conv(3, 5, 3, 2, 1, rng);
  Tensor x(Shape{1, 3, 9, 9});
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 5, 5, 5}));
  const auto [oh, ow] = conv.output_hw(9, 9);
  EXPECT_EQ(oh, 5);
  EXPECT_EQ(ow, 5);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2d conv(1, 1, 1, 1, 0, rng);
  conv.weight().fill(1.0f);
  conv.bias().fill(0.5f);
  Tensor x(Shape{1, 1, 3, 3});
  for (std::int64_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  const Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[i], static_cast<float>(i) + 0.5f);
  }
}

TEST(Conv2d, AveragingKernelKnownValue) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  conv.weight().fill(1.0f / 9.0f);
  conv.bias().zero();
  Tensor x(Shape{1, 1, 3, 3}, 9.0f);
  const Tensor y = conv.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_NEAR(y[0], 9.0f, 1e-5f);
}

TEST(Conv2d, RejectsWrongChannels) {
  Rng rng(1);
  Conv2d conv(4, 8, 3, 1, rng);
  Tensor x(Shape{1, 3, 10, 10});
  EXPECT_THROW(conv.forward(x), Error);
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, rng);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 1, 3, 3})), Error);
}

TEST(Conv2d, ParameterCountAndRefs) {
  Rng rng(1);
  Conv2d conv(4, 64, 3, 1, rng);
  EXPECT_EQ(conv.num_parameters(), 64 * 4 * 3 * 3 + 64);
  const auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "weight");
  EXPECT_EQ(params[1].name, "bias");
}

TEST(MaxPool2d, KnownValues) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
  EXPECT_EQ(y[2], 13.0f);
  EXPECT_EQ(y[3], 15.0f);
}

TEST(MaxPool2d, OddSizeDropsRemainder) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 5, 5}, 1.0f);
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2});
  x[3] = 10.0f;  // max at (1,1)
  (void)pool.forward(x);
  Tensor g(Shape{1, 1, 1, 1}, 2.0f);
  const Tensor gi = pool.backward(g);
  EXPECT_EQ(gi[0], 0.0f);
  EXPECT_EQ(gi[3], 2.0f);
}

TEST(MaxPool2d, RejectsPlaneSmallerThanWindow) {
  // (1 - 2) / 2 + 1 truncates to one output row, which would read past the
  // plane.
  MaxPool2d pool(2, 2);
  EXPECT_THROW(pool.forward(Tensor(Shape{1, 1, 1, 4})), Error);
  EXPECT_THROW(max_pool2d(Tensor(Shape{1, 1, 4, 1}), 2, 2), Error);
}

TEST(MaxPool2d, BackwardStaysInWindowWhenNothingBeatsMinusInfinity) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 4}, -std::numeric_limits<float>::infinity());
  (void)pool.forward(x);
  const Tensor gi = pool.backward(Tensor(Shape{1, 1, 1, 2}, 1.0f));
  EXPECT_EQ(gi[0], 1.0f);  // the first window's first element
  EXPECT_EQ(gi[2], 1.0f);  // the second window's, not the plane's
}

TEST(AdaptiveMaxPool2d, FixedOutputForAnyInput) {
  AdaptiveMaxPool2d pool(4, 4);
  for (std::int64_t size : {4, 5, 7, 12, 33, 100}) {
    Tensor x(Shape{1, 2, size, size}, 1.0f);
    const Tensor y = pool.forward(x);
    EXPECT_EQ(y.shape(), Shape({1, 2, 4, 4})) << "input size " << size;
  }
}

TEST(AdaptiveMaxPool2d, BinsCoverWholeInput) {
  // PyTorch-convention bins overlap when in % out != 0, so a single hot
  // pixel must light up at least one and at most 2x2 output cells.
  AdaptiveMaxPool2d pool(3, 3);
  for (std::int64_t hot = 0; hot < 49; ++hot) {
    Tensor x(Shape{1, 1, 7, 7}, 0.0f);
    x[hot] = 5.0f;
    const Tensor y = pool.forward(x);
    int hot_cells = 0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      if (y[i] == 5.0f) ++hot_cells;
    }
    EXPECT_GE(hot_cells, 1) << "hot pixel " << hot;
    EXPECT_LE(hot_cells, 4) << "hot pixel " << hot;
  }
}

TEST(AdaptiveMaxPool2d, ExactPartitionWhenDivisible) {
  // When the input divides evenly, bins are disjoint: exactly one hot cell.
  AdaptiveMaxPool2d pool(3, 3);
  for (std::int64_t hot = 0; hot < 81; ++hot) {
    Tensor x(Shape{1, 1, 9, 9}, 0.0f);
    x[hot] = 5.0f;
    const Tensor y = pool.forward(x);
    int hot_cells = 0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      if (y[i] == 5.0f) ++hot_cells;
    }
    EXPECT_EQ(hot_cells, 1) << "hot pixel " << hot;
  }
}

TEST(AdaptiveMaxPool2d, UpsampleCase) {
  // Output larger than input: bins repeat input cells, never crash.
  AdaptiveMaxPool2d pool(4, 4);
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1;
  x[1] = 2;
  x[2] = 3;
  x[3] = 4;
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 1, 4, 4}));
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[15], 4.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten flatten;
  Tensor x(Shape{2, 3, 4, 5});
  const Tensor y = flatten.forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  const Tensor back = flatten.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(Linear, KnownValues) {
  Rng rng(1);
  Linear linear(2, 2, rng);
  linear.weight().fill(0.0f);
  linear.weight().at({0, 0}) = 1.0f;  // y0 = x0
  linear.weight().at({1, 1}) = 2.0f;  // y1 = 2*x1
  linear.bias()[0] = 0.5f;
  Tensor x(Shape{1, 2});
  x[0] = 3.0f;
  x[1] = 4.0f;
  const Tensor y = linear.forward(x);
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(Linear, RejectsWrongWidth) {
  Rng rng(1);
  Linear linear(8, 4, rng);
  EXPECT_THROW(linear.forward(Tensor(Shape{1, 7})), Error);
  EXPECT_THROW(linear.forward(Tensor(Shape{8})), Error);
}

TEST(Spp, LevelsFromFirst) {
  EXPECT_EQ(spp_levels_from_first(5),
            (std::vector<std::int64_t>{5, 2, 1}));
  EXPECT_EQ(spp_levels_from_first(4),
            (std::vector<std::int64_t>{4, 2, 1}));
  EXPECT_EQ(spp_levels_from_first(2), (std::vector<std::int64_t>{2, 1}));
  EXPECT_EQ(spp_levels_from_first(1), (std::vector<std::int64_t>{1}));
  EXPECT_THROW(spp_levels_from_first(0), Error);
}

TEST(Spp, OutputSizeIndependentOfInputSize) {
  // The core SPP property (§2.2): fixed-length output for any input size.
  SpatialPyramidPool spp({4, 2, 1});
  EXPECT_EQ(spp.features_per_channel(), 21);
  for (std::int64_t size : {6, 12, 25, 50, 100}) {
    Tensor x(Shape{2, 8, size, size}, 1.0f);
    const Tensor y = spp.forward(x);
    EXPECT_EQ(y.shape(), Shape({2, 8 * 21})) << "input " << size;
  }
}

TEST(Spp, RectangularInputs) {
  SpatialPyramidPool spp({2, 1});
  Tensor x(Shape{1, 3, 9, 17}, 1.0f);
  const Tensor y = spp.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 3 * 5}));
}

TEST(Spp, GlobalLevelIsGlobalMax) {
  SpatialPyramidPool spp({1});
  Tensor x(Shape{1, 1, 5, 5}, 0.0f);
  x[13] = 42.0f;
  const Tensor y = spp.forward(x);
  ASSERT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 42.0f);
}

TEST(Spp, ConcatenationOrderMatchesLevels) {
  SpatialPyramidPool spp({2, 1});
  Tensor x(Shape{1, 1, 4, 4}, 0.0f);
  x.at({0, 0, 0, 0}) = 3.0f;  // top-left quadrant max
  const Tensor y = spp.forward(x);
  ASSERT_EQ(y.numel(), 5);
  EXPECT_EQ(y[0], 3.0f);  // level-2 cell (0,0)
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[4], 3.0f);  // level-1 global max
}

TEST(Sequential, ComposesAndCollectsParameters) {
  Rng rng(1);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 4 * 4, 3, rng);
  Tensor x(Shape{1, 1, 4, 4}, 1.0f);
  const Tensor y = net.forward(x);
  EXPECT_EQ(y.shape(), Shape({1, 3}));
  const auto params = net.parameters();
  ASSERT_EQ(params.size(), 4u);  // conv w/b + linear w/b
  EXPECT_NE(params[0].name.find("Conv2d"), std::string::npos);
  EXPECT_NE(params[2].name.find("Linear"), std::string::npos);
}

TEST(Sequential, TrainingFlagPropagates) {
  Rng rng(1);
  Sequential net;
  auto& dropout = net.emplace<Dropout>(0.5, rng);
  net.set_training(false);
  EXPECT_FALSE(dropout.is_training());
  net.set_training(true);
  EXPECT_TRUE(dropout.is_training());
}

TEST(Dropout, EvalModeIsIdentity) {
  Rng rng(1);
  Dropout dropout(0.5, rng);
  dropout.set_training(false);
  Tensor x(Shape{100}, 2.0f);
  const Tensor y = dropout.forward(x);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(y[i], 2.0f);
}

TEST(Dropout, TrainingModePreservesExpectation) {
  Rng rng(2);
  Dropout dropout(0.25, rng);
  Tensor x(Shape{20000}, 1.0f);
  const Tensor y = dropout.forward(x);
  double sum = 0.0;
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    sum += y[i];
    zeros += y[i] == 0.0f ? 1 : 0;
  }
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.03);  // inverted scaling
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.25, 0.02);
}

// ---- Parameterized property sweeps ----

// SPP output-size law: output features = C * sum(l^2) for every input size.
using SppCase = std::tuple<int, int, int>;  // first level, channels, size

class SppOutputLaw : public testing::TestWithParam<SppCase> {};

TEST_P(SppOutputLaw, FixedLengthForAnyInput) {
  const auto [first, channels, size] = GetParam();
  SpatialPyramidPool spp(spp_levels_from_first(first));
  Rng rng(static_cast<std::uint64_t>(first * 100 + channels + size));
  Tensor x(Shape{2, channels, size, size});
  x.fill_uniform(rng, 0.0f, 1.0f);
  const Tensor y = spp.forward(x);
  std::int64_t cells = 0;
  for (std::int64_t l : spp.levels()) cells += l * l;
  EXPECT_EQ(y.shape(), Shape({2, channels * cells}));
  // Values are maxima of the input: bounded by the input range.
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_GE(y[i], 0.0f);
    EXPECT_LE(y[i], 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SppOutputLaw,
    testing::Combine(testing::Values(1, 2, 3, 4, 5),
                     testing::Values(1, 8),
                     testing::Values(5, 12, 25)));

// Adaptive-pool coverage law: the max over all bins equals the global max.
class AdaptiveCoverageLaw : public testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(AdaptiveCoverageLaw, BinsNeverMissTheGlobalMax) {
  const auto [out, in] = GetParam();
  if (out > in) GTEST_SKIP() << "upsampling case covered elsewhere";
  AdaptiveMaxPool2d pool(out, out);
  Rng rng(static_cast<std::uint64_t>(out * 1000 + in));
  Tensor x(Shape{1, 3, in, in});
  x.fill_normal(rng, 0.0f, 1.0f);
  const Tensor y = pool.forward(x);
  for (std::int64_t c = 0; c < 3; ++c) {
    float global_max = -1e30f;
    for (std::int64_t i = 0; i < in * in; ++i) {
      global_max = std::max(global_max, x[c * in * in + i]);
    }
    float bin_max = -1e30f;
    for (std::int64_t i = 0; i < out * out; ++i) {
      bin_max = std::max(bin_max, y[c * out * out + i]);
    }
    EXPECT_FLOAT_EQ(bin_max, global_max) << "channel " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AdaptiveCoverageLaw,
                         testing::Combine(testing::Values(1, 2, 3, 4, 5, 7),
                                          testing::Values(5, 9, 12, 25)));

}  // namespace
}  // namespace dcn
