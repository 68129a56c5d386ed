// Micro benchmarks for the nn layers at SPP-Net shapes: conv forward and
// backward, pooling (the module and the inference pool), the SPP layer
// across pyramid depths, and the original model's eval forward and full
// forward/backward step.
#include <benchmark/benchmark.h>

#include "core/rng.hpp"
#include "detect/sppnet.hpp"
#include "nn/conv2d.hpp"
#include "nn/pool.hpp"
#include "nn/spp.hpp"

namespace {

using namespace dcn;

void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t channels_in = state.range(0);
  const std::int64_t channels_out = state.range(1);
  const std::int64_t size = state.range(2);
  Rng rng(1);
  Conv2d conv(channels_in, channels_out, 3, 1, rng);
  Tensor x(Shape{1, channels_in, size, size}, 0.5f);
  for (auto _ : state) {
    Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * channels_in * 9 * channels_out * size * size,
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

// The three trunk convolutions of the Table-1 models at 100-px input.
BENCHMARK(BM_Conv2dForward)
    ->Args({4, 64, 100})
    ->Args({64, 128, 50})
    ->Args({128, 256, 25})
    ->Unit(benchmark::kMillisecond);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(1);
  Conv2d conv(64, 128, 3, 1, rng);
  Tensor x(Shape{1, 64, 50, 50}, 0.5f);
  Tensor y = conv.forward(x);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor gx = conv.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2dBackward)->Unit(benchmark::kMillisecond);

void BM_MaxPool(benchmark::State& state) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 64, 100, 100}, 0.5f);
  for (auto _ : state) {
    Tensor y = pool.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MaxPool)->Unit(benchmark::kMillisecond);

// The inference pool (no argmax) at the scan's conv0 output, batch 32 at
// 48 px, on seeded random input: BM_MaxPool's constant input ties every
// window.
void BM_MaxPoolInfer(benchmark::State& state) {
  Rng rng(1);
  Tensor x(Shape{32, 64, 48, 48});
  x.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = max_pool2d(x, 2, 2);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * x.numel() *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_MaxPoolInfer)->Unit(benchmark::kMillisecond);

void BM_SppForward(benchmark::State& state) {
  const auto levels =
      spp_levels_from_first(static_cast<std::int64_t>(state.range(0)));
  SpatialPyramidPool spp(levels);
  Tensor x(Shape{1, 256, 12, 12}, 0.5f);
  for (auto _ : state) {
    Tensor y = spp.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
// Pyramid depth is the NAS axis; cost grows with the finest level.
BENCHMARK(BM_SppForward)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_SppNetForward(benchmark::State& state) {
  Rng rng(1);
  detect::SppNet model(detect::original_sppnet(), rng);
  model.set_training(false);
  const std::int64_t batch = state.range(0);
  const std::int64_t size = state.range(1);
  Tensor x(Shape{batch, 4, size, size});
  x.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = model.forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
// SPP accepts any input size; cost scales with area. Batch 32 at 48 px is
// the scan's batch.
BENCHMARK(BM_SppNetForward)
    ->Args({1, 50})
    ->Args({1, 100})
    ->Args({32, 48})
    ->Unit(benchmark::kMillisecond);

void BM_SppNetTrainStep(benchmark::State& state) {
  Rng rng(1);
  detect::SppNet model(detect::original_sppnet(), rng);
  Tensor x(Shape{4, 4, 64, 64}, 0.5f);
  for (auto _ : state) {
    model.zero_grad();
    Tensor y = model.forward(x);
    Tensor gx = model.backward(y);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_SppNetTrainStep)->Unit(benchmark::kMillisecond);

}  // namespace
