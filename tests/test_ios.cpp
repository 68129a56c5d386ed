// Tests for the IOS scheduler: schedule validity, DP optimality, executor,
// Gantt rendering, and the HIOS-lite multi-GPU latency models.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/error.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "ios/executor.hpp"
#include "ios/gantt.hpp"
#include "ios/hios_lite.hpp"
#include "ios/schedule.hpp"
#include "ios/scheduler.hpp"
#include "simgpu/device.hpp"
#include "simgpu/spec.hpp"

namespace dcn::ios {
namespace {

graph::Graph spp_graph(const detect::SppNetConfig& config,
                       std::int64_t size = 100) {
  return graph::build_inference_graph(config, size);
}

// A small multi-branch graph for brute-force comparison: conv trunk, three
// parallel pooling branches, concat.
graph::Graph small_branched_graph(int branches) {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{16, 16, 16}});
  graph::OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 16;
  const auto trunk = g.add_op(graph::OpKind::kConv2d, "trunk", conv, {in},
                              graph::TensorDesc{{16, 16, 16}});
  std::vector<graph::OpId> outs;
  for (int b = 0; b < branches; ++b) {
    graph::OpAttrs pool;
    pool.pool_out = b + 1;
    const auto p = g.add_op(
        graph::OpKind::kAdaptivePool, "pool" + std::to_string(b), pool,
        {trunk}, graph::TensorDesc{{16, b + 1, b + 1}});
    const auto f = g.add_op(
        graph::OpKind::kFlatten, "flat" + std::to_string(b), {}, {p},
        graph::TensorDesc{{16 * (b + 1) * (b + 1)}});
    outs.push_back(f);
  }
  std::int64_t total = 0;
  for (int b = 0; b < branches; ++b) total += 16 * (b + 1) * (b + 1);
  const auto concat = g.add_op(graph::OpKind::kConcat, "cat", {}, outs,
                               graph::TensorDesc{{total}});
  g.add_op(graph::OpKind::kOutput, "out", {}, {concat},
           graph::TensorDesc{{total}});
  return g;
}

TEST(SequentialSchedule, OneOpPerStage) {
  const auto g = spp_graph(detect::original_sppnet());
  const Schedule seq = sequential_schedule(g);
  EXPECT_EQ(seq.num_stages(), 19u);  // 21 nodes minus Input and Output
  EXPECT_EQ(seq.max_concurrency(), 1u);
  validate_schedule(g, seq);
}

TEST(ValidateSchedule, CatchesDuplicates) {
  const auto g = spp_graph(detect::original_sppnet());
  Schedule bad = sequential_schedule(g);
  bad.stages.push_back(bad.stages.front());
  EXPECT_THROW(validate_schedule(g, bad), dcn::Error);
}

TEST(ValidateSchedule, CatchesMissingOps) {
  const auto g = spp_graph(detect::original_sppnet());
  Schedule bad = sequential_schedule(g);
  bad.stages.pop_back();
  EXPECT_THROW(validate_schedule(g, bad), dcn::Error);
}

TEST(ValidateSchedule, CatchesDependencyViolation) {
  const auto g = spp_graph(detect::original_sppnet());
  Schedule bad = sequential_schedule(g);
  std::swap(bad.stages[0], bad.stages[1]);
  EXPECT_THROW(validate_schedule(g, bad), dcn::Error);
}

TEST(ValidateSchedule, CatchesEmptyStage) {
  const auto g = spp_graph(detect::original_sppnet());
  Schedule bad = sequential_schedule(g);
  bad.stages.push_back(Stage{});
  EXPECT_THROW(validate_schedule(g, bad), dcn::Error);
}

TEST(Optimize, ProducesValidScheduleForAllTable1Models) {
  const auto spec = simgpu::a5500_spec();
  for (const auto& config : detect::table1_models()) {
    const auto g = spp_graph(config);
    const Schedule opt = optimize_schedule(g, spec);
    validate_schedule(g, opt);  // throws on failure
    EXPECT_LT(opt.num_stages(), sequential_schedule(g).num_stages());
    EXPECT_GE(opt.max_concurrency(), config.spp_levels.size());
  }
}

TEST(Optimize, CostNeverWorseThanSequential) {
  const auto spec = simgpu::a5500_spec();
  for (const auto& config : detect::table1_models()) {
    const auto g = spp_graph(config);
    for (std::int64_t batch : {1, 8, 64}) {
      IosOptions options;
      options.batch = batch;
      const Schedule opt = optimize_schedule(g, spec, options);
      const double c_opt = schedule_cost(g, spec, opt, batch);
      const double c_seq =
          schedule_cost(g, spec, sequential_schedule(g), batch);
      EXPECT_LE(c_opt, c_seq) << config.name << " batch " << batch;
    }
  }
}

TEST(Optimize, BlockDecompositionNearWholeGraphOptimum) {
  // Block decomposition is IOS's approximation: the whole-graph DP is a
  // lower bound (it may merge across block boundaries, saving stage gaps),
  // and the block-based result must stay within those boundary gaps of it.
  const auto spec = simgpu::a5500_spec();
  for (int branches : {1, 2, 3}) {
    const auto g = small_branched_graph(branches);
    IosOptions options;
    options.batch = 1;
    const Schedule opt = optimize_schedule(g, spec, options);
    const double block_cost = schedule_cost(g, spec, opt, 1);
    const double best = brute_force_best_cost(g, spec, 1);
    EXPECT_GE(block_cost, best - 1e-12) << branches << " branches";
    // At most two extra stage boundaries (entry and exit of the block).
    EXPECT_LE(block_cost, best + 2 * spec.inter_stage_gap + 1e-9)
        << branches << " branches";
    // And never worse than the sequential baseline.
    EXPECT_LE(block_cost,
              schedule_cost(g, spec, sequential_schedule(g), 1) + 1e-12);
  }
}

TEST(Optimize, ExactOnPureChain) {
  // With no branches the block decomposition is a single merged stage and
  // must coincide with the whole-graph optimum exactly.
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{64}});
  graph::OpAttrs fc;
  fc.out_features = 64;
  graph::OpId prev = in;
  for (int i = 0; i < 5; ++i) {
    prev = g.add_op(graph::OpKind::kLinear, "fc" + std::to_string(i), fc,
                    {prev}, graph::TensorDesc{{64}});
  }
  const auto spec = simgpu::a5500_spec();
  const Schedule opt = optimize_schedule(g, spec);
  EXPECT_EQ(opt.num_stages(), 1u);
  EXPECT_NEAR(schedule_cost(g, spec, opt, 1),
              brute_force_best_cost(g, spec, 1), 1e-12);
}

TEST(Optimize, ParallelizesSppBranches) {
  const auto spec = simgpu::a5500_spec();
  const auto g = spp_graph(detect::sppnet_candidate2());
  const Schedule opt = optimize_schedule(g, spec);
  // All three SPP pooling branches land in one stage.
  bool found_parallel_stage = false;
  for (const Stage& stage : opt.stages) {
    if (stage.groups.size() >= 3) found_parallel_stage = true;
  }
  EXPECT_TRUE(found_parallel_stage);
}

TEST(Optimize, PruningWidthStillYieldsValidSchedule) {
  // 7 branches: a 14-op block, small enough for the DP and larger than the
  // pruning width, so the widest stage the DP could pick is pruned away.
  const auto spec = simgpu::a5500_spec();
  const auto g = small_branched_graph(7);
  static_assert(14 <= kMaxDpOps && 14 > kMaxStageOps);
  const Schedule opt = optimize_schedule(g, spec);
  validate_schedule(g, opt);
  // The pruning width bounds DP-produced stages (the branched block);
  // multi-group stages can only come from the DP.
  bool multi_group = false;
  for (const Stage& stage : opt.stages) {
    if (stage.groups.size() < 2) continue;
    multi_group = true;
    std::size_t ops = 0;
    for (const Group& group : stage.groups) ops += group.ops.size();
    EXPECT_LE(ops, static_cast<std::size_t>(kMaxStageOps));
  }
  EXPECT_TRUE(multi_group);
}

TEST(Optimize, OversizedBlockFallsBackToBranchHeuristic) {
  // 9 branches: an 18-op block, above kMaxDpOps. The heuristic puts all 18
  // ops in one stage, one group per branch, which the DP's pruning width
  // would never allow.
  const auto spec = simgpu::a5500_spec();
  const auto g = small_branched_graph(9);
  static_assert(18 > kMaxDpOps && 18 > kMaxStageOps);
  const Schedule opt = optimize_schedule(g, spec);
  validate_schedule(g, opt);
  bool heuristic_stage = false;
  for (const Stage& stage : opt.stages) {
    std::size_t ops = 0;
    for (const Group& group : stage.groups) ops += group.ops.size();
    if (ops == 18 && stage.groups.size() == 9) heuristic_stage = true;
  }
  EXPECT_TRUE(heuristic_stage);
}

TEST(Optimize, BlockBeyondDpMaskWidthFallsBackInsteadOfCrashing) {
  // A 16-branch block holds more device ops (32) than the 32-bit DP mask
  // can represent; it must take the branch heuristic.
  const auto spec = simgpu::a5500_spec();
  const auto g = small_branched_graph(16);
  const Schedule opt = optimize_schedule(g, spec);
  validate_schedule(g, opt);
  EXPECT_LE(schedule_cost(g, spec, opt, 1),
            schedule_cost(g, spec, sequential_schedule(g), 1) + 1e-12);
}

TEST(Executor, LatencyIsDeterministic) {
  const auto spec = simgpu::a5500_spec();
  const auto g = spp_graph(detect::original_sppnet());
  const Schedule opt = optimize_schedule(g, spec);
  simgpu::Device d1(spec);
  simgpu::Device d2(spec);
  const double a = measure_latency(g, opt, d1, 4);
  const double b = measure_latency(g, opt, d2, 4);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Executor, RepeatRunsAgreeOnSteadyState) {
  const auto spec = simgpu::a5500_spec();
  const auto g = spp_graph(detect::original_sppnet());
  simgpu::Device device(spec);
  InferenceSession session(g, sequential_schedule(g), device);
  session.initialize();
  const double first = session.run(4).latency_seconds;
  const double second = session.run(4).latency_seconds;
  const double third = session.run(4).latency_seconds;
  // Latencies are differences of growing absolute virtual timestamps, so
  // agreement is up to timestamp rounding (last few ulps), not bit-exact.
  EXPECT_NEAR(first, second, 1e-12);
  EXPECT_NEAR(second, third, 1e-12);
}

TEST(Executor, OptimizedBeatsSequentialAtBatchOne) {
  // The Table-2 headline: IOS reduces single-image latency.
  const auto spec = simgpu::a5500_spec();
  for (const auto& config : detect::table1_models()) {
    const auto g = spp_graph(config);
    simgpu::Device d1(spec);
    simgpu::Device d2(spec);
    const double seq = measure_latency(g, sequential_schedule(g), d1, 1);
    IosOptions options;
    const double opt =
        measure_latency(g, optimize_schedule(g, spec, options), d2, 1);
    EXPECT_LT(opt, seq) << config.name;
    // Latencies live in the paper's regime: fractions of a millisecond.
    EXPECT_GT(opt, 20e-6) << config.name;
    EXPECT_LT(seq, 5e-3) << config.name;
  }
}

TEST(Executor, EfficiencyImprovesWithBatch) {
  // The Figure-6 shape: latency/image falls with batch size and the gain
  // from 32 to 64 is much smaller than from 1 to 2 (diminishing returns).
  const auto spec = simgpu::a5500_spec();
  const auto g = spp_graph(detect::sppnet_candidate2());
  const Schedule opt = optimize_schedule(g, spec);
  std::vector<double> per_image;
  for (std::int64_t batch : {1, 2, 4, 8, 16, 32, 64}) {
    simgpu::Device device(spec);
    per_image.push_back(measure_latency(g, opt, device, batch) /
                        static_cast<double>(batch));
  }
  for (std::size_t i = 1; i < per_image.size(); ++i) {
    EXPECT_LT(per_image[i], per_image[i - 1] * 1.02) << "step " << i;
  }
  const double gain_first = per_image[0] / per_image[1];
  const double gain_last = per_image[5] / per_image[6];
  EXPECT_GT(gain_first, gain_last);
  EXPECT_LT(gain_last, 1.15);  // near-saturation by batch 64
}

TEST(Executor, RunBeforeInitializeThrows) {
  const auto spec = simgpu::a5500_spec();
  const auto g = spp_graph(detect::original_sppnet());
  simgpu::Device device(spec);
  InferenceSession session(g, sequential_schedule(g), device);
  EXPECT_THROW(session.run(1), dcn::Error);
}

TEST(Executor, SessionTracksWeightsInDeviceMemory) {
  const auto spec = simgpu::a5500_spec();
  const auto config = detect::sppnet_candidate2();
  const auto g = spp_graph(config);
  simgpu::Device device(spec);
  InferenceSession session(g, sequential_schedule(g), device);
  session.initialize();
  EXPECT_GE(device.memory().live_bytes(),
            4 * config.parameter_count());
  // Far below the 24 GB budget — the paper's Fig. 7 observation.
  EXPECT_LT(device.memory().live_bytes(), spec.dram_bytes / 10);
}

TEST(ScheduleCost, MatchesExecutorUpToTransfersAndSync) {
  const auto spec = simgpu::a5500_spec();
  const auto g = spp_graph(detect::original_sppnet());
  const Schedule opt = optimize_schedule(g, spec);
  const double modeled = schedule_cost(g, spec, opt, 1);
  simgpu::Device device(spec);
  const double measured = measure_latency(g, opt, device, 1);
  // Executor adds H2D/D2H copies and the final sync; it must exceed the
  // pure stage cost, but only by a bounded overhead.
  EXPECT_GT(measured, modeled);
  EXPECT_LT(measured, modeled + 500e-6);
}

class HiosLiteTest : public testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<graph::Graph>(
        graph::build_inference_graph(detect::sppnet_candidate2(), 100));
    spec_ = simgpu::a5500_spec();
    schedule_ = ios::optimize_schedule(*graph_, spec_);
  }
  std::unique_ptr<graph::Graph> graph_;
  simgpu::DeviceSpec spec_;
  ios::Schedule schedule_;
};

TEST_F(HiosLiteTest, SingleGpuDataParallelMatchesBaseline) {
  ios::MultiGpuConfig config;
  config.num_gpus = 1;
  simgpu::Device device(spec_);
  const double single =
      ios::measure_latency(*graph_, schedule_, device, 32);
  const double dp =
      ios::data_parallel_latency(*graph_, schedule_, spec_, 32, config);
  EXPECT_NEAR(dp, single, 1e-9);
}

TEST_F(HiosLiteTest, DataParallelHelpsLargeBatches) {
  ios::MultiGpuConfig config;
  config.num_gpus = 4;
  const double one_gpu = ios::data_parallel_latency(
      *graph_, schedule_, spec_, 64, ios::MultiGpuConfig{.num_gpus = 1});
  const double four_gpus =
      ios::data_parallel_latency(*graph_, schedule_, spec_, 64, config);
  EXPECT_LT(four_gpus, one_gpu);
}

TEST_F(HiosLiteTest, DataParallelHurtsBatchOne) {
  // Sharding a single image is pure overhead.
  ios::MultiGpuConfig config;
  config.num_gpus = 4;
  const double one_gpu = ios::data_parallel_latency(
      *graph_, schedule_, spec_, 1, ios::MultiGpuConfig{.num_gpus = 1});
  const double four_gpus =
      ios::data_parallel_latency(*graph_, schedule_, spec_, 1, config);
  EXPECT_GE(four_gpus, one_gpu);
}

TEST_F(HiosLiteTest, BranchParallelismDoesNotPayForSppBranches) {
  // The HIOS premise, quantified: SPP's branches are far too small to
  // amortize inter-GPU activation transfers.
  ios::MultiGpuConfig config;
  config.num_gpus = 2;
  const double single =
      ios::schedule_cost(*graph_, spec_, schedule_, 1) ;
  const double multi = ios::branch_parallel_latency(*graph_, schedule_,
                                                    spec_, 1, config);
  EXPECT_GT(multi, single);
}

TEST_F(HiosLiteTest, BranchParallelSingleGpuMatchesScheduleCost) {
  ios::MultiGpuConfig config;
  config.num_gpus = 1;
  const double cost = ios::schedule_cost(*graph_, spec_, schedule_, 8);
  const double multi =
      ios::branch_parallel_latency(*graph_, schedule_, spec_, 8, config);
  EXPECT_NEAR(multi, cost, 1e-12);
}

TEST(Gantt, StructureMatchesSchedule) {
  const auto g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 100);
  const auto spec = simgpu::a5500_spec();
  const ios::Schedule schedule = ios::optimize_schedule(g, spec);
  const std::string gantt = ios::render_gantt(g, spec, schedule);
  // One row per concurrent stream.
  for (std::size_t s = 0; s < schedule.max_concurrency(); ++s) {
    EXPECT_NE(gantt.find("stream " + std::to_string(s)),
              std::string::npos);
  }
  // The large kernels' names appear (tiny kernels truncate to "[]").
  EXPECT_NE(gantt.find("fc0"), std::string::npos);
  EXPECT_NE(gantt.find("conv2"), std::string::npos);
  // Stage separators: one '|' per stage per row.
  const std::size_t bars =
      static_cast<std::size_t>(std::count(gantt.begin(), gantt.end(), '|'));
  EXPECT_EQ(bars, schedule.num_stages() * schedule.max_concurrency());
}

TEST(Gantt, SequentialScheduleIsSingleRow) {
  const auto g =
      graph::build_inference_graph(detect::original_sppnet(), 64);
  const auto spec = simgpu::a5500_spec();
  const std::string gantt =
      ios::render_gantt(g, spec, ios::sequential_schedule(g));
  EXPECT_NE(gantt.find("stream 0"), std::string::npos);
  EXPECT_EQ(gantt.find("stream 1"), std::string::npos);
}

}  // namespace
}  // namespace dcn::ios
