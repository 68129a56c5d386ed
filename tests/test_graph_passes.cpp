// Tests for the graph optimizer sweep: its exact output on two production
// graphs, structural invariants over every graph the builder emits,
// hand-built edge cases, the launch-reduction acceptance floor, IOS
// scheduling over the fused graph, and the semantics-preservation proof —
// fused vs unfused inference must be bit-identical at fp32 and int8, at
// every thread count, because fused nodes run through the tensor engine's
// existing GEMM/qgemm epilogues.
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
#include "tensor/kernels/tuner.hpp"

namespace dcn::graph {
namespace {

constexpr std::int64_t kInput = 40;

// The compute op a fused kind wraps (kConv2d / kLinear); identity for
// unfused kinds.
OpKind base_kind(OpKind kind) {
  switch (kind) {
    case OpKind::kFusedConvReLU:
      return OpKind::kConv2d;
    case OpKind::kFusedLinearReLU:
      return OpKind::kLinear;
    default:
      return kind;
  }
}

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

TEST(Passes, OptimizeIsIdempotent) {
  for (const auto& model :
       {detect::original_sppnet(), detect::sppnet_candidate2()}) {
    const Graph naive = build_inference_graph(model, 100);
    const Graph once = optimize_graph(naive);
    const Graph twice = optimize_graph(once);
    EXPECT_EQ(once.to_string(), twice.to_string()) << model.name;
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

// The production full model and the committed cascade screener, node for
// node: kinds, names, output dims and edges.
TEST(Passes, PinnedListings) {
  EXPECT_EQ(
      optimize_graph(build_inference_graph(detect::sppnet_candidate2(), 100))
          .to_string(),
      "#0 Input 'input' -> (4x100x100)\n"
      "#1 FusedConvReLU 'conv0' -> (64x100x100) inputs[0]\n"
      "#2 MaxPool 'pool0' -> (64x50x50) inputs[1]\n"
      "#3 FusedConvReLU 'conv1' -> (128x50x50) inputs[2]\n"
      "#4 MaxPool 'pool1' -> (128x25x25) inputs[3]\n"
      "#5 FusedConvReLU 'conv2' -> (256x25x25) inputs[4]\n"
      "#6 MaxPool 'pool2' -> (256x12x12) inputs[5]\n"
      "#7 AdaptivePool 'spp_pool_l5_b0' -> (256x5x5) inputs[6]\n"
      "#8 AdaptivePool 'spp_pool_l2_b1' -> (256x2x2) inputs[6]\n"
      "#9 AdaptivePool 'spp_pool_l1_b2' -> (256x1x1) inputs[6]\n"
      "#10 Concat 'spp_concat' -> (7680) inputs[7, 8, 9]\n"
      "#11 FusedLinearReLU 'fc0' -> (4096) inputs[10]\n"
      "#12 Linear 'head' -> (5) inputs[11]\n"
      "#13 Output 'output' -> (5) inputs[12]\n");

  nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 2;
  point.fc_sizes = {64};
  const detect::SppNetConfig screener = scan::materialize_screener(point);
  ASSERT_EQ(screener.name, "screener-w8-k3-l2-f64");
  EXPECT_EQ(optimize_graph(build_inference_graph(screener, 48)).to_string(),
            "#0 Input 'input' -> (4x48x48)\n"
            "#1 FusedConvReLU 'conv0' -> (8x24x24) inputs[0]\n"
            "#2 MaxPool 'pool0' -> (8x12x12) inputs[1]\n"
            "#3 FusedConvReLU 'conv1' -> (16x12x12) inputs[2]\n"
            "#4 MaxPool 'pool1' -> (16x6x6) inputs[3]\n"
            "#5 AdaptivePool 'spp_pool_l2_b0' -> (16x2x2) inputs[4]\n"
            "#6 AdaptivePool 'spp_pool_l1_b1' -> (16x1x1) inputs[4]\n"
            "#7 Concat 'spp_concat' -> (80) inputs[5, 6]\n"
            "#8 FusedLinearReLU 'fc0' -> (64) inputs[7]\n"
            "#9 Linear 'head' -> (5) inputs[8]\n"
            "#10 Output 'output' -> (5) inputs[9]\n");
}

OpId find_op(const Graph& g, const std::string& name) {
  for (const OpNode& node : g.nodes()) {
    if (node.name == name) return node.id;
  }
  return kInvalidOp;
}

bool same_attrs(const OpAttrs& a, const OpAttrs& b) {
  return a.kernel == b.kernel && a.stride == b.stride &&
         a.padding == b.padding && a.out_channels == b.out_channels &&
         a.out_features == b.out_features && a.pool_out == b.pool_out;
}

// Every model the repo builds graphs for: the Table-1 models, both NAS
// spaces, and the screener grid at trunk widths 4, 8 and 16.
std::vector<detect::SppNetConfig> every_model() {
  std::vector<detect::SppNetConfig> models = {
      detect::original_sppnet(), detect::sppnet_candidate1(),
      detect::sppnet_candidate2(), detect::sppnet_candidate3()};
  for (const int fc_layers : {1, 2}) {
    nas::SearchSpace space;
    space.num_fc_layers = fc_layers;
    for (const nas::SearchPoint& point : space.enumerate()) {
      models.push_back(nas::materialize(point));
    }
  }
  for (const std::int64_t width : {4, 8, 16}) {
    scan::ScreenerSpace space;
    space.trunk_width = width;
    for (const nas::SearchPoint& point : space.enumerate()) {
      models.push_back(scan::materialize_screener(point, width));
    }
  }
  return models;
}

// For each graph: no ReLU or Flatten survives; the other nodes keep their
// order, names and attrs, every conv and every linear but `head` is fused;
// parameters are unchanged; each dropped ReLU or Flatten is one launch
// fewer; and a second run changes nothing. Each graph is optimized once
// more with two taps appended — a ReLU reading conv0 and a ReLU reading the
// first SPP Flatten — which must keep conv0 unfused (it has two consumers)
// and keep that Flatten (a ReLU needs its rank).
TEST(Passes, SweepOverEveryBuilderGraph) {
  for (const detect::SppNetConfig& model : every_model()) {
    for (const std::int64_t size : {40, 47, 48, 64, 100, 128}) {
      SCOPED_TRACE(model.name + " @ " + std::to_string(size) + " px");
      const Graph naive = build_inference_graph(model, size);
      const Graph fused = optimize_graph(naive);
      const std::size_t dropped = count_kind(naive, OpKind::kReLU) +
                                  count_kind(naive, OpKind::kFlatten);
      EXPECT_EQ(count_kind(fused, OpKind::kReLU), 0u);
      EXPECT_EQ(count_kind(fused, OpKind::kFlatten), 0u);
      EXPECT_EQ(fused.parameter_count(), naive.parameter_count());
      EXPECT_EQ(device_op_count(naive) - device_op_count(fused), dropped);
      EXPECT_EQ(optimize_graph(fused).to_string(), fused.to_string());
      std::size_t next = 0;
      for (const OpNode& node : naive.nodes()) {
        if (node.kind == OpKind::kReLU || node.kind == OpKind::kFlatten) {
          continue;
        }
        ASSERT_LT(next, fused.size());
        const OpNode& out = fused.node(static_cast<OpId>(next++));
        EXPECT_EQ(out.name, node.name);
        EXPECT_TRUE(same_attrs(out.attrs, node.attrs)) << node.name;
        EXPECT_EQ(base_kind(out.kind), node.kind) << node.name;
        const bool compute =
            node.kind == OpKind::kConv2d || node.kind == OpKind::kLinear;
        EXPECT_EQ(out.kind != node.kind, compute && node.name != "head")
            << node.name;
      }
      EXPECT_EQ(next, fused.size());

      Graph tapped = naive;
      const OpId conv0 = find_op(naive, "conv0");
      const OpId flat0 = find_op(naive, "spp_flat_b0");
      tapped.add_op(OpKind::kReLU, "tap_conv0", {}, {conv0},
                    naive.node(conv0).output);
      tapped.add_op(OpKind::kReLU, "tap_flat", {}, {flat0},
                    naive.node(flat0).output);
      const Graph tapped_fused = optimize_graph(tapped);
      EXPECT_EQ(tapped_fused.node(find_op(tapped_fused, "conv0")).kind,
                OpKind::kConv2d);
      EXPECT_NE(find_op(tapped_fused, "relu_c0"), kInvalidOp);
      EXPECT_NE(find_op(tapped_fused, "spp_flat_b0"), kInvalidOp);
      EXPECT_EQ(device_op_count(tapped) - device_op_count(tapped_fused),
                dropped - 2);
      if (HasFailure()) return;  // one failing graph is enough to report
    }
  }
}

// A Concat reading two Flattens of one pool: folding both would give it a
// duplicate edge, so the first folds and the second stays.
TEST(Passes, FoldingNeverDuplicatesAnEdge) {
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{2, 4, 4}});
  OpAttrs pool;
  pool.kernel = 2;
  pool.stride = 2;
  const OpId p =
      g.add_op(OpKind::kMaxPool, "pool", pool, {in}, TensorDesc{{2, 2, 2}});
  const OpId a = g.add_op(OpKind::kFlatten, "flat_a", {}, {p}, TensorDesc{{8}});
  const OpId b = g.add_op(OpKind::kFlatten, "flat_b", {}, {p}, TensorDesc{{8}});
  const OpId cat =
      g.add_op(OpKind::kConcat, "cat", {}, {a, b}, TensorDesc{{16}});
  g.add_op(OpKind::kOutput, "out", {}, {cat}, TensorDesc{{16}});

  const Graph optimized = optimize_graph(g);
  EXPECT_NO_THROW(validate_shapes(optimized));
  EXPECT_EQ(optimized.to_string(),
            "#0 Input 'in' -> (2x4x4)\n"
            "#1 MaxPool 'pool' -> (2x2x2) inputs[0]\n"
            "#2 Flatten 'flat_b' -> (8) inputs[1]\n"
            "#3 Concat 'cat' -> (16) inputs[1, 2]\n"
            "#4 Output 'out' -> (16) inputs[3]\n");
}

// Fusion needs the ReLU to be the conv's only consumer: here a pool also
// reads the pre-activation tensor, so both nodes stay.
TEST(Passes, ConvWithTwoConsumersStaysUnfused) {
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{8, 8, 8}});
  OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 8;
  const OpId a =
      g.add_op(OpKind::kConv2d, "a", conv, {in}, TensorDesc{{8, 8, 8}});
  g.add_op(OpKind::kReLU, "relu", {}, {a}, TensorDesc{{8, 8, 8}});
  OpAttrs pool;
  pool.kernel = 2;
  pool.stride = 2;
  g.add_op(OpKind::kMaxPool, "pool", pool, {a}, TensorDesc{{8, 4, 4}});

  EXPECT_EQ(optimize_graph(g).to_string(), g.to_string());
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

// Seeded property test over random architectures: points of the NAS space
// (one and two FC layers, FC widths capped at 512 to keep it fast) and of
// the screener space at trunk widths 4/8/16, at input sizes in [40, 64] and
// batch 1 or 3. The naive and optimized graphs must agree bit for bit at
// fp32 and, after quantize() on one calibration batch, at int8, with 1 and
// 4 threads. Each case draws everything from its own seed, which a failure
// prints. The tile tuner is off: it would time every new GEMM shape class
// these architectures bring (seconds on a cold cache), and both graphs run
// the same GEMMs whatever the tile.
TEST(Numerics, RandomArchitecturesFusedVsNaiveBitIdentical) {
  constexpr std::uint64_t kBaseSeed = 4201;
  constexpr int kCases = 9;
  ThreadGuard guard;
  struct TunerOff {
    const bool was = kernels::TileTuner::global().enabled();
    TunerOff() { kernels::TileTuner::global().set_enabled(false); }
    ~TunerOff() { kernels::TileTuner::global().set_enabled(was); }
  } tuner_off;
  for (int c = 0; c < kCases; ++c) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(c);
    Rng rng(seed);
    detect::SppNetConfig config;
    if (c % 3 == 2) {
      const std::vector<nas::SearchPoint> points =
          scan::ScreenerSpace{}.enumerate();
      const std::int64_t widths[] = {4, 8, 16};
      config = scan::materialize_screener(points[rng.index(points.size())],
                                          widths[rng.index(3)]);
    } else {
      nas::SearchSpace space;
      space.fc_widths = {128, 256, 512};
      space.num_fc_layers = 1 + c % 3;
      config = nas::materialize(space.sample(rng));
    }
    const std::int64_t size = rng.uniform_int(40, 64);
    const std::int64_t batch = rng.bernoulli(0.5) ? 3 : 1;
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + config.name + " @ " +
                 std::to_string(size) + " px, batch " + std::to_string(batch));

    detect::SppNet net(config, rng);
    const WeightMap weights = extract_weights(net);
    const Graph naive = build_inference_graph(config, size);
    NumericExecutor unfused(naive, weights);
    NumericExecutor fused(optimize_graph(naive), weights);
    const Tensor calibration = random_batch(2, 4, size, rng.next_u64());
    unfused.quantize(calibration);
    fused.quantize(calibration);
    const Tensor x = random_batch(batch, 4, size, rng.next_u64());
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      EXPECT_TRUE(bitwise_equal(unfused.forward(x), fused.forward(x)))
          << "fp32, threads=" << threads;
      EXPECT_TRUE(
          bitwise_equal(unfused.forward_int8(x), fused.forward_int8(x)))
          << "int8, threads=" << threads;
    }
  }
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
