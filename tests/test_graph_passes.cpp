// Tests for the graph optimizer pass framework: registry and pipeline
// mechanics (idempotence, DCE, canonicalization, opt-out flags), the
// launch-reduction acceptance floor, IOS scheduling over the fused graph,
// and the semantics-preservation proof — fused vs unfused inference must be
// bit-identical at fp32 and int8, at every thread count, because fused
// nodes run through the tensor engine's existing GEMM/qgemm epilogues.
#include "graph/passes.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "detect/quantized_sppnet.hpp"
#include "detect/sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "graph/numeric.hpp"
#include "ios/executor.hpp"
#include "ios/schedule.hpp"
#include "ios/scheduler.hpp"
#include "nas/search_space.hpp"
#include "scan/screener.hpp"
#include "simgpu/device.hpp"
#include "simgpu/spec.hpp"

namespace dcn::graph {
namespace {

constexpr std::int64_t kInput = 40;

std::size_t count_kind(const Graph& g, OpKind kind) {
  std::size_t n = 0;
  for (const OpNode& node : g.nodes()) {
    if (node.kind == kind) ++n;
  }
  return n;
}

Tensor random_batch(std::int64_t n, std::int64_t channels, std::int64_t size,
                    std::uint64_t seed) {
  Tensor batch(Shape{{n, channels, size, size}});
  Rng rng(seed);
  batch.fill_normal(rng, 0.0f, 1.0f);
  return batch;
}

// Restores the global thread override even when an assertion fails.
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

TEST(PassRegistry, BuiltInsRegisteredUnknownThrows) {
  const auto names = PassRegistry::instance().names();
  for (const char* expected :
       {kCanonicalizePass, kFuseConvReLUPass, kFuseLinearReLUPass,
        kConstantFoldingPass, kDeadOpEliminationPass}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_THROW(PassRegistry::instance().create("no-such-pass"), ConfigError);
}

TEST(PassManager, OptimizeIsIdempotent) {
  for (const auto& model :
       {detect::original_sppnet(), detect::sppnet_candidate2()}) {
    const Graph naive = build_inference_graph(model, 100);
    const Graph once = optimize_graph(naive);
    PassStats stats;
    const Graph twice = optimize_graph(once, {}, &stats);
    EXPECT_EQ(once.to_string(), twice.to_string()) << model.name;
    // The second run's very first sweep must already be the fixpoint.
    EXPECT_EQ(stats.iterations, 1) << model.name;
    EXPECT_EQ(stats.ops_before, stats.ops_after) << model.name;
  }
}

TEST(Passes, FusionRewritesTheSppNetFamily) {
  for (const auto& model :
       {detect::original_sppnet(), detect::sppnet_candidate1(),
        detect::sppnet_candidate2(), detect::sppnet_candidate3()}) {
    const Graph naive = build_inference_graph(model, 100);
    const Graph fused = optimize_graph(naive);
    validate_shapes(fused);

    // Every ReLU is absorbed into its producer; flattens fold away (the
    // concat and FC read element counts, not spatial metadata).
    EXPECT_EQ(count_kind(fused, OpKind::kReLU), 0u) << model.name;
    EXPECT_EQ(count_kind(fused, OpKind::kFlatten), 0u) << model.name;
    EXPECT_GT(count_kind(fused, OpKind::kFusedConvReLU), 0u) << model.name;
    EXPECT_GT(count_kind(fused, OpKind::kFusedLinearReLU), 0u) << model.name;
    // Weight binding survives: the builder's compute-op names are intact.
    bool conv0 = false, head = false;
    for (const OpNode& node : fused.nodes()) {
      conv0 |= node.name == "conv0";
      head |= node.name == "head";
    }
    EXPECT_TRUE(conv0 && head) << model.name;
    EXPECT_EQ(fused.parameter_count(), naive.parameter_count()) << model.name;

    // The PR's acceptance floor: >= 25% fewer scheduled kernel launches.
    const double reduction =
        1.0 - static_cast<double>(device_op_count(fused)) /
                  static_cast<double>(device_op_count(naive));
    EXPECT_GE(reduction, 0.25) << model.name;
  }
}

TEST(Passes, DeadOpEliminationRemovesUnreachable) {
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{8, 8, 8}});
  OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 8;
  const OpId a =
      g.add_op(OpKind::kConv2d, "a", conv, {in}, TensorDesc{{8, 8, 8}});
  // Dead branch: a ReLU nobody consumes and that does not reach the output.
  g.add_op(OpKind::kReLU, "dead", {}, {a}, TensorDesc{{8, 8, 8}});
  g.add_op(OpKind::kOutput, "out", {}, {a}, TensorDesc{{8, 8, 8}});

  // The conv has two consumers, so the fusion rule must not fire; DCE alone
  // removes the dead ReLU.
  const Graph optimized = optimize_graph(g);
  EXPECT_EQ(optimized.size(), 3u);
  EXPECT_EQ(count_kind(optimized, OpKind::kReLU), 0u);
  EXPECT_EQ(count_kind(optimized, OpKind::kConv2d), 1u);
}

TEST(Passes, OptOutFlagsDisableIndividualRewrites) {
  const Graph naive = build_inference_graph(detect::original_sppnet(), 100);
  OptimizeOptions no_fuse;
  no_fuse.fuse = false;
  const Graph unfused = optimize_graph(naive, no_fuse);
  EXPECT_GT(count_kind(unfused, OpKind::kReLU), 0u);
  EXPECT_EQ(count_kind(unfused, OpKind::kFusedConvReLU), 0u);
  // Canonicalization still folds the flattens.
  EXPECT_EQ(count_kind(unfused, OpKind::kFlatten), 0u);

  OptimizeOptions nothing;
  nothing.canonicalize = nothing.fuse = false;
  nothing.fold_constants = nothing.eliminate_dead = false;
  EXPECT_EQ(optimize_graph(naive, nothing).to_string(), naive.to_string());
}

TEST(Ios, DpSchedulesTheFusedGraphDirectly) {
  const auto spec = simgpu::a5500_spec();
  const Graph naive =
      build_inference_graph(detect::sppnet_candidate2(), 100);
  const Graph fused = optimize_graph(naive);

  const ios::Schedule schedule = ios::optimize_schedule(fused, spec);
  ios::validate_schedule(fused, schedule);  // covers every fused device op
  EXPECT_EQ(schedule.num_kernels(), device_op_count(fused));

  // The fused schedule executes end-to-end and beats the naive one — fewer
  // launches and no intermediate activation round-trips.
  simgpu::Device naive_device(spec);
  simgpu::Device fused_device(spec);
  const double naive_latency = ios::measure_latency(
      naive, ios::optimize_schedule(naive, spec), naive_device, 1);
  const double fused_latency =
      ios::measure_latency(fused, schedule, fused_device, 1);
  EXPECT_LT(fused_latency, naive_latency);
}

TEST(Numerics, FusedVsUnfusedBitIdenticalFp32AcrossThreadCounts) {
  Rng rng(7);
  detect::SppNet net(detect::original_sppnet(), rng);
  const WeightMap weights = extract_weights(net);
  const Graph naive = build_inference_graph(detect::original_sppnet(), kInput);
  const NumericExecutor unfused(naive, weights);
  const NumericExecutor fused(optimize_graph(naive), weights);
  const Tensor x = random_batch(3, 4, kInput, 11);

  ThreadGuard guard;
  std::vector<float> reference;
  for (const int threads : {1, 2, 5}) {
    set_num_threads(threads);
    const Tensor a = unfused.forward(x);
    const Tensor b = fused.forward(x);
    ASSERT_EQ(a.numel(), b.numel());
    // Bit-identical, not approximately equal: the fused epilogue computes
    // the very same max(x, 0) on the very same GEMM result.
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "threads=" << threads;
    // And the engine's determinism contract holds across thread counts.
    if (reference.empty()) {
      reference.assign(a.data(), a.data() + a.numel());
    } else {
      EXPECT_EQ(std::memcmp(a.data(), reference.data(),
                            sizeof(float) * reference.size()),
                0)
          << "threads=" << threads;
    }
  }
}

TEST(Numerics, FusedVsUnfusedBitIdenticalInt8AcrossThreadCounts) {
  Rng rng(13);
  detect::SppNet net(detect::original_sppnet(), rng);
  const WeightMap weights = extract_weights(net);
  const Graph naive = build_inference_graph(detect::original_sppnet(), kInput);
  NumericExecutor unfused(naive, weights);
  NumericExecutor fused(optimize_graph(naive), weights);

  const Tensor calibration = random_batch(4, 4, kInput, 17);
  unfused.quantize(calibration);
  fused.quantize(calibration);
  EXPECT_TRUE(unfused.quantized() && fused.quantized());
  const Tensor x = random_batch(3, 4, kInput, 19);

  ThreadGuard guard;
  for (const int threads : {1, 2, 5}) {
    set_num_threads(threads);
    const Tensor a = unfused.forward_int8(x);
    const Tensor b = fused.forward_int8(x);
    ASSERT_EQ(a.numel(), b.numel());
    // Calibration observed bit-identical tensors on both twins (the
    // observation points — each conv/linear's float input — survive
    // fusion), so scales match and the qgemm epilogue's max(x, 0) equals
    // the standalone ReLU exactly.
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "threads=" << threads;
  }
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

// The executor, the module stack and QuantizedSppNet compute every layer
// through the same nn/ forward functions, so the naive and the optimized
// graph both reproduce SppNet::forward (fp32) — the fused eval walk and the
// unfused training-mode module stack alike — and QuantizedSppNet::forward
// (int8) bit for bit. Batch 9 spreads unevenly over 4 threads
// (for_each_sample's tasks); the cascade screener adds a stride-2 stem.
TEST(Numerics, ExecutorMatchesTheRealModels) {
  constexpr std::int64_t kSize = 48;
  nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 2;
  point.fc_sizes = {64};
  const detect::SppNetConfig screener = scan::materialize_screener(point);
  ASSERT_EQ(screener.trunk.front().conv.stride, 2);
  for (const detect::SppNetConfig& config :
       {detect::original_sppnet(), screener}) {
    Rng rng(23);
    detect::SppNet net(config, rng);
    net.set_training(false);
    const Tensor x = random_batch(9, 4, kSize, 29);
    const Tensor calibration = random_batch(4, 4, kSize, 31);
    detect::QuantizedSppNet quantized(net, calibration);
    const Graph naive = build_inference_graph(config, kSize);
    for (const Graph& g : {naive, optimize_graph(naive)}) {
      NumericExecutor executor(g, extract_weights(net));
      executor.quantize(calibration);
      ThreadGuard guard;
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        const Tensor fp32 = executor.forward(x);
        EXPECT_TRUE(bitwise_equal(fp32, net.forward(x)))
            << config.name << " fp32, " << g.size() << " nodes, threads="
            << threads;
        net.set_training(true);
        EXPECT_TRUE(bitwise_equal(fp32, net.forward(x)))
            << config.name << " fp32 vs training forward, " << g.size()
            << " nodes, threads=" << threads;
        net.set_training(false);
        EXPECT_TRUE(
            bitwise_equal(executor.forward_int8(x), quantized.forward(x)))
            << config.name << " int8, " << g.size() << " nodes, threads="
            << threads;
      }
    }
  }
}

TEST(Numerics, GuardsMisuse) {
  Rng rng(37);
  detect::SppNet net(detect::original_sppnet(), rng);
  const WeightMap weights = extract_weights(net);
  const Graph naive = build_inference_graph(detect::original_sppnet(), kInput);
  const NumericExecutor executor(naive, weights);
  EXPECT_THROW(executor.forward_int8(random_batch(1, 4, kInput, 41)),
               ConfigError);  // quantize() first
  WeightMap missing = weights;
  missing.erase("conv0");
  EXPECT_THROW(NumericExecutor(naive, missing), ConfigError);
}

}  // namespace
}  // namespace dcn::graph
