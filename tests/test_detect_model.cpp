// Tests for the SppNet model and the fixed-input baseline.
#include "detect/sppnet.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "detect/fixed_cnn.hpp"
#include "detect/imageops.hpp"
#include "nas/search_space.hpp"
#include "scan/screener.hpp"

namespace dcn::detect {
namespace {

SppNetConfig tiny_config() {
  SppNetConfig config = parse_notation(
      "C_{4,3,1}-P_{2,2}-C_{8,3,1}-P_{2,2}-SPP_{2,1}-F_{16}", 4);
  config.name = "tiny";
  return config;
}

TEST(SppNet, OutputShapeIsNx5) {
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  Tensor x(Shape{3, 4, 24, 24}, 0.5f);
  const Tensor y = model.forward(x);
  EXPECT_EQ(y.shape(), Shape({3, 5}));
}

TEST(SppNet, AcceptsVariableInputSizes) {
  // The paper's central SPP property: one set of weights, any input size.
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  for (std::int64_t size : {16, 24, 33, 50, 100}) {
    Tensor x(Shape{1, 4, size, size}, 0.25f);
    const Tensor y = model.forward(x);
    EXPECT_EQ(y.shape(), Shape({1, 5})) << "input " << size;
  }
}

TEST(SppNet, RectangularInput) {
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  Tensor x(Shape{1, 4, 20, 37}, 0.25f);
  EXPECT_EQ(model.forward(x).shape(), Shape({1, 5}));
}

TEST(SppNet, DeterministicGivenSeed) {
  Rng rng_a(9);
  Rng rng_b(9);
  SppNet a(tiny_config(), rng_a);
  SppNet b(tiny_config(), rng_b);
  Tensor x(Shape{1, 4, 16, 16}, 0.5f);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(SppNet, HeadInitEncodesBoxPrior) {
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  Tensor x(Shape{1, 4, 16, 16}, 0.0f);  // zero input isolates biases
  const Tensor y = model.forward(x);
  EXPECT_NEAR(y[0], -1.0f, 1e-5f);  // objectness prior
  EXPECT_NEAR(y[1], 0.5f, 1e-5f);   // cx prior
  EXPECT_NEAR(y[3], 0.2f, 1e-5f);   // w prior
}

TEST(SppNet, DecodeAppliesSigmoid) {
  Tensor head(Shape{2, 5});
  head[0] = 0.0f;   // conf 0.5
  head[5] = 10.0f;  // conf ~1
  head[6] = 0.3f;
  const auto preds = SppNet::decode(head);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_NEAR(preds[0].confidence, 0.5f, 1e-6f);
  EXPECT_GT(preds[1].confidence, 0.99f);
  EXPECT_EQ(preds[1].box[0], 0.3f);
}

TEST(SppNet, DecodeRejectsWrongShape) {
  EXPECT_THROW(SppNet::decode(Tensor(Shape{2, 4})), dcn::Error);
}

TEST(SppNet, PredictRestoresTrainingFlag) {
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  model.set_training(true);
  Tensor x(Shape{1, 4, 16, 16}, 0.5f);
  (void)model.predict(x);
  EXPECT_TRUE(model.is_training());
}

TEST(SppNet, ParametersCoverTrunkAndHead) {
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  bool has_trunk = false;
  bool has_head = false;
  for (const ParamRef& p : model.parameters()) {
    if (p.name.rfind("trunk.", 0) == 0) has_trunk = true;
    if (p.name.rfind("head.", 0) == 0) has_head = true;
    EXPECT_NE(p.value, nullptr);
    EXPECT_NE(p.grad, nullptr);
  }
  EXPECT_TRUE(has_trunk);
  EXPECT_TRUE(has_head);
}

TEST(SppNet, BackwardProducesInputShapedGradient) {
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  Tensor x(Shape{2, 4, 16, 16}, 0.5f);
  const Tensor y = model.forward(x);
  const Tensor gx = model.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(SppNet, BackwardNeedsATrainingForward) {
  Rng rng(1);
  SppNet model(tiny_config(), rng);
  Tensor x(Shape{2, 4, 16, 16}, 0.5f);
  const Tensor grad(Shape{2, 5}, 1.0f);
  EXPECT_THROW(model.backward(grad), Error);
  (void)model.forward(x);
  model.set_training(false);
  (void)model.forward(x);
  // The layer caches still hold the training batch; using them would
  // silently differentiate it instead of the eval input.
  EXPECT_THROW(model.backward(grad), Error);
  model.set_training(true);
  (void)model.forward(x);
  EXPECT_EQ(model.backward(grad).shape(), x.shape());
}

// Restores the global thread override even when an assertion fails.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

// Eval mode runs the fused lowering (ReLU in the GEMM epilogue, pools with
// no argmax, no caches); training mode runs the modules one by one. Size 47
// truncates in every pool. The inputs are finite: the fused epilogue passes
// a NaN through where the ReLU module zeroes it.
TEST(SppNet, EvalForwardBitIdenticalToTrainingForward) {
  nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 2;
  point.fc_sizes = {64};
  std::vector<SppNetConfig> configs = table1_models();
  configs.push_back(scan::materialize_screener(point));
  ThreadGuard guard;
  for (const SppNetConfig& config : configs) {
    Rng rng(3);
    SppNet net(config, rng);
    for (const std::int64_t size : {47, 48, 100}) {
      for (const std::int64_t batch : {1, 9}) {
        Tensor x(Shape{batch, 4, size, size});
        x.fill_normal(rng, 0.0f, 1.0f);
        // The training forward is bit-identical at any thread count
        // (test_parallel_conv), so one reference serves both.
        set_num_threads(4);
        net.set_training(true);
        const Tensor trained = net.forward(x);
        net.set_training(false);
        for (const int threads : {1, 4}) {
          set_num_threads(threads);
          const Tensor eval = net.forward(x);
          ASSERT_EQ(eval.shape(), trained.shape());
          EXPECT_EQ(std::memcmp(eval.data(), trained.data(),
                                sizeof(float) *
                                    static_cast<std::size_t>(eval.numel())),
                    0)
              << config.name << ", size " << size << ", batch " << batch
              << ", threads " << threads;
        }
      }
    }
  }
}

TEST(FixedInputCnn, MatchingSizePassesThrough) {
  Rng rng(2);
  FixedInputCnn model(tiny_config(), 16, rng);
  Tensor x(Shape{2, 4, 16, 16}, 0.5f);
  EXPECT_EQ(model.forward(x).shape(), Shape({2, 5}));
}

TEST(FixedInputCnn, WarpsForeignSizes) {
  Rng rng(2);
  FixedInputCnn model(tiny_config(), 16, rng);
  Tensor x(Shape{1, 4, 40, 40}, 0.5f);
  EXPECT_EQ(model.forward(x).shape(), Shape({1, 5}));
}

TEST(FixedInputCnn, WarpChangesPredictionsButSppDoesNot) {
  // The motivation of §2.2 in miniature: for a scale-doubled input, the
  // fixed-size CNN must warp (losing fidelity) while SPP-Net consumes it
  // natively. Verify both produce valid outputs and that SPP output for
  // constant images is scale-invariant.
  Rng rng(3);
  SppNet spp(tiny_config(), rng);
  Tensor small(Shape{1, 4, 16, 16}, 0.7f);
  Tensor large(Shape{1, 4, 32, 32}, 0.7f);
  const Tensor ys = spp.forward(small);
  const Tensor yl = spp.forward(large);
  for (std::int64_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(ys[i], yl[i], 1e-3f);  // constant image: max pools agree
  }
}

TEST(ImageOps, BilinearResizeKnownValues) {
  Tensor img(Shape{1, 2, 2});
  img[0] = 0.0f;
  img[1] = 1.0f;
  img[2] = 2.0f;
  img[3] = 3.0f;
  const Tensor up = bilinear_resize(img, 3, 3);
  EXPECT_EQ(up.shape(), Shape({1, 3, 3}));
  EXPECT_NEAR(up.at({0, 0, 0}), 0.0f, 1e-6f);
  EXPECT_NEAR(up.at({0, 2, 2}), 3.0f, 1e-6f);
  EXPECT_NEAR(up.at({0, 1, 1}), 1.5f, 1e-6f);
}

TEST(ImageOps, ResizeIdentityWhenSameSize) {
  Rng rng(4);
  Tensor img(Shape{2, 5, 5});
  img.fill_uniform(rng, 0.0f, 1.0f);
  const Tensor same = bilinear_resize(img, 5, 5);
  for (std::int64_t i = 0; i < img.numel(); ++i) {
    EXPECT_NEAR(same[i], img[i], 1e-6f);
  }
}

TEST(ImageOps, CenterCrop) {
  Tensor img(Shape{1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) img[i] = static_cast<float>(i);
  const Tensor crop = center_crop(img, 2);
  EXPECT_EQ(crop.shape(), Shape({1, 2, 2}));
  EXPECT_EQ(crop[0], 5.0f);  // (1,1)
  EXPECT_EQ(crop[3], 10.0f);
}

TEST(ImageOps, CropBoxExtractsRegion) {
  Tensor img(Shape{1, 10, 10});
  for (std::int64_t i = 0; i < 100; ++i) img[i] = static_cast<float>(i);
  const float box[4] = {0.5f, 0.5f, 0.4f, 0.4f};  // center 4x4-ish region
  const Tensor crop = crop_box(img, box);
  EXPECT_GE(crop.dim(1), 2);
  EXPECT_GE(crop.dim(2), 2);
  EXPECT_LE(crop.dim(1), 6);
}

TEST(ImageOps, CropBoxClampsDegenerateBoxes) {
  Tensor img(Shape{1, 8, 8}, 1.0f);
  const float box[4] = {0.0f, 0.0f, 0.01f, 0.01f};  // tiny corner box
  const Tensor crop = crop_box(img, box);
  EXPECT_GE(crop.dim(1), 2);  // floor of 2x2 enforced
  EXPECT_GE(crop.dim(2), 2);
}

}  // namespace
}  // namespace dcn::detect
