// Determinism and correctness of the batch-parallel conv/linear path, the
// plane-parallel max pools and the workspace arena: jobs=1 vs jobs=N must be
// bit-identical in forward outputs, pool argmaxes, gradients, and end-to-end
// trained weights, and gradcheck must hold under threading.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "detect/trainer.hpp"
#include "nn/conv2d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "tensor/workspace.hpp"

namespace dcn {
namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
};

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// --- Conv2d forward/backward across job counts ------------------------------

struct ConvPassResult {
  Tensor output;
  Tensor grad_input;
  Tensor weight_grad;
  Tensor bias_grad;
};

ConvPassResult run_conv_pass(int jobs) {
  ThreadGuard guard(jobs);
  Rng rng(123);
  Conv2d conv(3, 8, 3, 1, 1, rng);  // same weights for every jobs value
  const Tensor input = random_tensor(Shape{9, 3, 13, 11}, 99);
  const Tensor grad_out = random_tensor(Shape{9, 8, 13, 11}, 100);
  ConvPassResult r;
  r.output = conv.forward(input);
  r.grad_input = conv.backward(grad_out);
  const auto params = conv.parameters();
  r.weight_grad = *params[0].grad;
  r.bias_grad = *params[1].grad;
  return r;
}

TEST(ParallelConv, ForwardAndBackwardBitIdenticalAcrossJobs) {
  const ConvPassResult serial = run_conv_pass(1);
  for (int jobs : {2, 4, 7}) {
    const ConvPassResult parallel = run_conv_pass(jobs);
    EXPECT_TRUE(bit_identical(serial.output, parallel.output))
        << "forward, jobs=" << jobs;
    EXPECT_TRUE(bit_identical(serial.grad_input, parallel.grad_input))
        << "grad_input, jobs=" << jobs;
    EXPECT_TRUE(bit_identical(serial.weight_grad, parallel.weight_grad))
        << "weight_grad, jobs=" << jobs;
    EXPECT_TRUE(bit_identical(serial.bias_grad, parallel.bias_grad))
        << "bias_grad, jobs=" << jobs;
  }
}

TEST(ParallelConv, StridedAndSingleSampleShapesBitIdentical) {
  // batch < chunks, stride > 1, and pad 0 hit the other partition branches.
  auto run = [](int jobs) {
    ThreadGuard guard(jobs);
    Rng rng(7);
    Conv2d conv(2, 5, 3, 2, 0, rng);
    const Tensor input = random_tensor(Shape{3, 2, 17, 9}, 55);
    Tensor out = conv.forward(input);
    Tensor gi = conv.backward(random_tensor(out.shape(), 56));
    return std::pair<Tensor, Tensor>(std::move(out), std::move(gi));
  };
  const auto serial = run(1);
  const auto parallel = run(6);
  EXPECT_TRUE(bit_identical(serial.first, parallel.first));
  EXPECT_TRUE(bit_identical(serial.second, parallel.second));
}

TEST(ParallelConv, GradcheckHoldsUnderThreading) {
  ThreadGuard guard(4);
  Rng rng(11);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  const Tensor input = random_tensor(Shape{4, 2, 7, 7}, 33);
  const GradCheckResult gin = check_input_gradient(conv, input);
  EXPECT_TRUE(gin.ok) << gin.detail;
  const GradCheckResult gparam = check_parameter_gradients(conv, input);
  EXPECT_TRUE(gparam.ok) << gparam.detail;
}

// --- Linear under threading -------------------------------------------------

TEST(ParallelConv, LinearFusedBiasBitIdenticalAcrossJobs) {
  auto run = [](int jobs) {
    ThreadGuard guard(jobs);
    Rng rng(17);
    Linear lin(96, 64, rng);
    const Tensor input = random_tensor(Shape{33, 96}, 44);
    Tensor out = lin.forward(input);
    Tensor gi = lin.backward(random_tensor(out.shape(), 45));
    const auto params = lin.parameters();
    return std::tuple<Tensor, Tensor, Tensor>(std::move(out), std::move(gi),
                                              *params[0].grad);
  };
  const auto serial = run(1);
  const auto parallel = run(5);
  EXPECT_TRUE(bit_identical(std::get<0>(serial), std::get<0>(parallel)));
  EXPECT_TRUE(bit_identical(std::get<1>(serial), std::get<1>(parallel)));
  EXPECT_TRUE(bit_identical(std::get<2>(serial), std::get<2>(parallel)));
}

TEST(ParallelConv, LinearGradcheckHoldsUnderThreading) {
  ThreadGuard guard(4);
  Rng rng(19);
  Linear lin(24, 12, rng);
  const Tensor input = random_tensor(Shape{6, 24}, 66);
  const GradCheckResult gin = check_input_gradient(lin, input);
  EXPECT_TRUE(gin.ok) << gin.detail;
  const GradCheckResult gparam = check_parameter_gradients(lin, input);
  EXPECT_TRUE(gparam.ok) << gparam.detail;
}

// --- Max pools across thread counts -----------------------------------------

using Window =
    std::function<std::pair<std::int64_t, std::int64_t>(std::int64_t)>;

// The pooling contract written out: output (oy, ox) of a plane is the max
// over rows rows(oy) x columns cols(ox) in row-major order. A NaN never
// wins, the first of equal maxima wins (-0 and +0 are equal), and a window
// with nothing above -inf gives -inf at its first element; argmax holds the
// winner's flat input index.
Tensor naive_pool(const Tensor& x, std::int64_t oh, std::int64_t ow,
                  const Window& rows, const Window& cols,
                  std::vector<std::int64_t>& argmax) {
  const std::int64_t h = x.dim(2);
  const std::int64_t w = x.dim(3);
  Tensor out(Shape{x.dim(0), x.dim(1), oh, ow});
  argmax.assign(static_cast<std::size_t>(out.numel()), -1);
  std::int64_t o = 0;
  for (std::int64_t p = 0; p < x.dim(0) * x.dim(1); ++p) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
        const auto [y0, y1] = rows(oy);
        const auto [x0, x1] = cols(ox);
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t at = p * h * w + y0 * w + x0;
        for (std::int64_t iy = y0; iy < y1; ++iy) {
          for (std::int64_t ix = x0; ix < x1; ++ix) {
            const std::int64_t i = p * h * w + iy * w + ix;
            if (x[i] > best) {
              best = x[i];
              at = i;
            }
          }
        }
        out[o] = best;
        argmax[static_cast<std::size_t>(o)] = at;
      }
    }
  }
  return out;
}

// Values from a small set, so windows tie (including -0 against +0), skip
// NaNs and hold only -inf, plus one all-NaN block larger than any window.
Tensor pool_input(const Shape& shape, std::uint64_t seed) {
  const float kValues[] = {-1.0f, -0.0f, 0.0f, 0.5f,
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::infinity()};
  Rng rng(seed);
  Tensor x(shape);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = kValues[rng.uniform_int(0, 5)];
  }
  const std::int64_t w = shape.dim(3);
  for (std::int64_t iy = 5; iy < 13; ++iy) {
    for (std::int64_t ix = 3; ix < 11; ++ix) x[iy * w + ix] = kValues[4];
  }
  return x;
}

struct PoolCase {
  std::string name;
  Shape shape;
  std::int64_t kernel = 0;  // > 0: max_pool2d at `stride`; else adaptive
  std::int64_t stride = 0;
  std::int64_t out_h = 0;
  std::int64_t out_w = 0;
};

TEST(ParallelPool, MatchesNaiveLoopAtAnyThreadCount) {
  const PoolCase cases[] = {
      // Two planes, each above one task's worth, on four threads.
      {"fewer planes than threads", Shape{1, 2, 301, 299}, 3, 2, 0, 0},
      {"odd sizes truncate", Shape{9, 16, 47, 45}, 2, 2, 0, 0},
      {"overlapping windows", Shape{3, 11, 97, 89}, 3, 1, 0, 0},
      // 47 rows into 5 bins and 45 columns into 4: neighbours share a row.
      {"overlapping adaptive bins", Shape{9, 16, 47, 45}, 0, 0, 5, 4},
      {"adaptive, fewer planes than threads", Shape{1, 3, 200, 230}, 0, 0, 3,
       7},
  };
  for (const PoolCase& c : cases) {
    const Tensor x = pool_input(c.shape, 71);
    const std::int64_t h = c.shape.dim(2);
    const std::int64_t w = c.shape.dim(3);
    Window rows;
    Window cols;
    std::int64_t oh = c.out_h;
    std::int64_t ow = c.out_w;
    if (c.kernel > 0) {
      oh = (h - c.kernel) / c.stride + 1;
      ow = (w - c.kernel) / c.stride + 1;
      rows = cols = [&c](std::int64_t o) {
        return std::pair{o * c.stride, o * c.stride + c.kernel};
      };
    } else {
      const auto bins = [](std::int64_t in, std::int64_t out) -> Window {
        return [in, out](std::int64_t i) {
          return std::pair{(i * in) / out, ((i + 1) * in + out - 1) / out};
        };
      };
      rows = bins(h, oh);
      cols = bins(w, ow);
    }
    std::vector<std::int64_t> want_argmax;
    const Tensor want = naive_pool(x, oh, ow, rows, cols, want_argmax);
    for (const int jobs : {1, 4}) {
      ThreadGuard guard(jobs);
      for (const bool with_argmax : {false, true}) {
        std::vector<std::int64_t> argmax;
        std::vector<std::int64_t>* out_argmax = with_argmax ? &argmax : nullptr;
        const Tensor got =
            c.kernel > 0 ? max_pool2d(x, c.kernel, c.stride, out_argmax)
                         : adaptive_max_pool2d(x, oh, ow, out_argmax);
        EXPECT_EQ(got.shape(), want.shape()) << c.name;
        EXPECT_TRUE(bit_identical(got, want))
            << c.name << ", jobs=" << jobs << ", argmax=" << with_argmax;
        if (with_argmax) {
          EXPECT_EQ(argmax, want_argmax) << c.name << ", jobs=" << jobs;
        }
      }
    }
  }
}

// --- Workspace arena --------------------------------------------------------

TEST(WorkspaceArena, PointersSurviveGrowthWithinScope) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* first = ws.floats(32);
  first[0] = 42.0f;
  // Force growth well past the initial block.
  float* big = ws.floats(1 << 20);
  big[0] = 1.0f;
  EXPECT_EQ(first[0], 42.0f);  // old block untouched by growth
}

TEST(WorkspaceArena, ScopesNestAndRelease) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope outer(ws);
  float* a = ws.floats(16);
  a[0] = 7.0f;
  {
    Workspace::Scope inner(ws);
    (void)ws.floats(1024);
    EXPECT_EQ(ws.depth(), 2);
  }
  // Inner allocations released; outer pointer still valid.
  EXPECT_EQ(ws.depth(), 1);
  EXPECT_EQ(a[0], 7.0f);
  // The next inner scope reuses the same storage (no growth needed).
  const std::size_t cap = ws.capacity();
  {
    Workspace::Scope inner(ws);
    (void)ws.floats(1024);
  }
  EXPECT_EQ(ws.capacity(), cap);
}

TEST(WorkspaceArena, SteadyStateReusesCapacity) {
  Workspace& ws = Workspace::tls();
  std::size_t cap_after_first = 0;
  for (int pass = 0; pass < 3; ++pass) {
    Workspace::Scope scope(ws);
    (void)ws.floats(5000);
    (void)ws.floats(300);
    if (pass == 0) {
      cap_after_first = ws.capacity();
    } else {
      EXPECT_EQ(ws.capacity(), cap_after_first) << "pass " << pass;
    }
  }
}

// --- End-to-end: one epoch of training, jobs=1 vs jobs=N --------------------

class ParallelTrainingTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::kWarn);
    geo::DatasetConfig config;
    config.seed = 11;
    config.num_worlds = 1;
    config.terrain.rows = 256;
    config.terrain.cols = 256;
    config.roads.spacing = 64;
    config.stream_threshold = 200.0;
    config.patch_size = 24;
    config.positive_jitter = 2;
    config.augment_flips = true;
    dataset_ = new geo::DrainageDataset(
        geo::DrainageDataset::synthesize(config));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static geo::DrainageDataset* dataset_;
};

geo::DrainageDataset* ParallelTrainingTest::dataset_ = nullptr;

TEST_F(ParallelTrainingTest, OneEpochWeightsBitIdenticalAcrossJobs) {
  const auto model_config = detect::parse_notation(
      "C_{6,3,1}-P_{2,2}-C_{8,3,1}-P_{2,2}-SPP_{2,1}-F_{24}", 4);
  const geo::Split split = dataset_->split(0.8, 3);
  detect::TrainConfig config;
  config.epochs = 1;
  config.verbose = false;

  auto train_weights = [&](int jobs) {
    ThreadGuard guard(jobs);
    Rng rng(5);
    detect::SppNet model(model_config, rng);
    (void)detect::train_detector(model, *dataset_, split, config);
    std::vector<Tensor> weights;
    for (const auto& p : model.parameters()) weights.push_back(*p.value);
    return weights;
  };

  const auto serial = train_weights(1);
  const auto parallel = train_weights(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bit_identical(serial[i], parallel[i])) << "parameter " << i;
  }
}

}  // namespace
}  // namespace dcn
