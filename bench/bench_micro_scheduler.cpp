// Micro benchmarks for the scheduling stack: graph construction, block
// extraction, the IOS dynamic program (vs pyramid depth, the block-size
// driver), and the simulated executor.
#include <benchmark/benchmark.h>

#include "detect/sppnet_config.hpp"
#include "graph/blocks.hpp"
#include "graph/builder.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "simgpu/device.hpp"

namespace {

using namespace dcn;

// SPP levels {branches, ..., 2, 1}: one pooling branch per level.
detect::SppNetConfig config_with_branches(std::int64_t branches) {
  detect::SppNetConfig config = detect::original_sppnet();
  config.spp_levels.clear();
  for (std::int64_t level = branches; level >= 1; --level) {
    config.spp_levels.push_back(level);
  }
  return config;
}

void BM_BuildGraph(benchmark::State& state) {
  const auto config = detect::sppnet_candidate2();
  for (auto _ : state) {
    graph::Graph g = graph::build_inference_graph(config, 100);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_BuildGraph);

void BM_ExtractBlocks(benchmark::State& state) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 100);
  for (auto _ : state) {
    auto blocks = graph::extract_blocks(g);
    benchmark::DoNotOptimize(blocks.size());
  }
}
BENCHMARK(BM_ExtractBlocks);

void BM_IosDp(benchmark::State& state) {
  // DP cost grows with the branched block: the argument is the number of
  // SPP branches (2 to 5), each adding 2 ops to the block the DP solves.
  const graph::Graph g = graph::build_inference_graph(
      config_with_branches(state.range(0)), 100);
  const auto spec = simgpu::a5500_spec();
  for (auto _ : state) {
    ios::Schedule schedule = ios::optimize_schedule(g, spec);
    benchmark::DoNotOptimize(schedule.num_stages());
  }
}
BENCHMARK(BM_IosDp)->DenseRange(2, 5)->Unit(benchmark::kMicrosecond);

void BM_BruteForceDp(benchmark::State& state) {
  // Whole-graph DP over every device op — the exponential oracle, for
  // contrast with the block-decomposed path above.
  detect::SppNetConfig config = detect::parse_notation(
      "C_{16,3,1}-P_{2,2}-SPP_{3,2,1}-F_{64}", 4);
  const graph::Graph g = graph::build_inference_graph(config, 32);
  const auto spec = simgpu::a5500_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ios::brute_force_best_cost(g, spec, 1));
  }
}
BENCHMARK(BM_BruteForceDp)->Unit(benchmark::kMillisecond);

void BM_SimulatedInference(benchmark::State& state) {
  // Host-side cost of simulating one inference (virtual time is free; this
  // measures the simulator's own overhead).
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 100);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  simgpu::Device device(spec);
  ios::InferenceSession session(g, schedule, device);
  session.initialize();
  const std::int64_t batch = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(batch).latency_seconds);
  }
}
BENCHMARK(BM_SimulatedInference)->Arg(1)->Arg(64);

void BM_ScheduleCostEvaluation(benchmark::State& state) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 100);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ios::schedule_cost(g, spec, schedule, 1));
  }
}
BENCHMARK(BM_ScheduleCostEvaluation);

}  // namespace
