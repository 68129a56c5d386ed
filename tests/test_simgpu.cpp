// Tests for the simulated GPU: cost model, memory tracker, device timeline.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "profiler/recorder.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"
#include "simgpu/memory.hpp"

namespace dcn::simgpu {
namespace {

KernelDesc conv_kernel() {
  KernelDesc k;
  k.name = "conv";
  k.category = profiler::KernelCategory::kConv;
  k.flops_per_sample = 4e8;
  k.activation_bytes_per_sample = 4e6;
  k.weight_bytes = 3e5;
  k.threads_per_sample = 1e5;
  return k;
}

KernelDesc fc_kernel() {
  KernelDesc k;
  k.name = "fc";
  k.category = profiler::KernelCategory::kMatMul;
  k.flops_per_sample = 1.6e7;
  k.activation_bytes_per_sample = 4e4;
  k.weight_bytes = 1.3e8;  // weight-read dominated
  k.threads_per_sample = 1024;
  return k;
}

KernelDesc tiny_kernel() {
  KernelDesc k;
  k.name = "tiny";
  k.category = profiler::KernelCategory::kPooling;
  k.flops_per_sample = 1e3;
  k.activation_bytes_per_sample = 1e3;
  k.threads_per_sample = 256;
  return k;
}

TEST(CostModel, SoloCoversLaunchAndFloor) {
  const DeviceSpec spec = a5500_spec();
  const KernelCost cost = kernel_cost(spec, tiny_kernel(), 1);
  EXPECT_GE(cost.solo_seconds, spec.kernel_launch_gpu + spec.min_kernel_time);
  EXPECT_GT(cost.occupancy, 0.0);
  EXPECT_LE(cost.occupancy, 1.0);
}

TEST(CostModel, SaturatedNeverExceedsSolo) {
  const DeviceSpec spec = a5500_spec();
  for (const KernelDesc& k : {conv_kernel(), fc_kernel(), tiny_kernel()}) {
    for (std::int64_t batch : {1, 4, 16, 64}) {
      const KernelCost cost = kernel_cost(spec, k, batch);
      EXPECT_LE(cost.saturated_seconds, cost.solo_seconds)
          << k.name << " batch " << batch;
    }
  }
}

TEST(CostModel, LatencyMonotoneInBatch) {
  const DeviceSpec spec = a5500_spec();
  double prev = 0.0;
  for (std::int64_t batch : {1, 2, 4, 8, 16, 32, 64}) {
    const double t = kernel_cost(spec, conv_kernel(), batch).solo_seconds;
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(CostModel, PerImageLatencyImprovesWithBatchThenSaturates) {
  // The Figure-6 shape: latency/batch falls with batch, with diminishing
  // returns once the device saturates.
  const DeviceSpec spec = a5500_spec();
  const double eff1 = kernel_cost(spec, conv_kernel(), 1).solo_seconds;
  const double eff8 = kernel_cost(spec, conv_kernel(), 8).solo_seconds / 8;
  const double eff64 =
      kernel_cost(spec, conv_kernel(), 64).solo_seconds / 64;
  EXPECT_LT(eff8, eff1);
  EXPECT_LE(eff64, eff8 * 1.05);
  // Relative gain shrinks (diminishing returns).
  EXPECT_GT(eff1 / eff8, eff8 / eff64);
}

TEST(CostModel, FcIsWeightBoundAndBatchInsensitive) {
  // The Table-3 mechanism: FC time is dominated by reading weights, so its
  // duration barely grows with batch while conv scales ~linearly.
  const DeviceSpec spec = a5500_spec();
  const double fc1 = kernel_cost(spec, fc_kernel(), 1).solo_seconds;
  const double fc64 = kernel_cost(spec, fc_kernel(), 64).solo_seconds;
  EXPECT_LT(fc64 / fc1, 2.0);
  const double conv1 = kernel_cost(spec, conv_kernel(), 1).solo_seconds;
  const double conv64 = kernel_cost(spec, conv_kernel(), 64).solo_seconds;
  EXPECT_GT(conv64 / conv1, 10.0);
}

TEST(CostModel, StageEnvelopeProperties) {
  const DeviceSpec spec = a5500_spec();
  const std::vector<KernelDesc> group_a{conv_kernel()};
  const std::vector<KernelDesc> group_b{tiny_kernel()};
  const double together = stage_seconds(spec, {group_a, group_b}, 8);
  const double a_alone = stage_seconds(spec, {group_a}, 8);
  const double b_alone = stage_seconds(spec, {group_b}, 8);
  // A stage can never beat its slowest group, nor exceed serial execution.
  EXPECT_GE(together, std::max(a_alone, b_alone));
  EXPECT_LE(together, a_alone + b_alone + 1e-12);
}

TEST(CostModel, TinyParallelGroupsOverlapAlmostPerfectly) {
  const DeviceSpec spec = a5500_spec();
  std::vector<std::vector<KernelDesc>> groups;
  for (int i = 0; i < 4; ++i) groups.push_back({tiny_kernel()});
  const double together = stage_seconds(spec, groups, 1);
  const double one = stage_seconds(spec, {{tiny_kernel()}}, 1);
  // Four tiny kernels on separate streams cost about one kernel, not four.
  EXPECT_LT(together, 1.5 * one);
}

TEST(CostModel, SaturatingGroupsSerialize) {
  DeviceSpec spec = tiny_spec();
  KernelDesc big = conv_kernel();
  big.threads_per_sample = 1e7;  // saturates the tiny device
  const double together = stage_seconds(spec, {{big}, {big}}, 4);
  const double one = stage_seconds(spec, {{big}}, 4);
  EXPECT_GT(together, 1.8 * one);
}

TEST(CostModel, RejectsNonpositiveBatch) {
  EXPECT_THROW(kernel_cost(a5500_spec(), conv_kernel(), 0), dcn::Error);
}

TEST(Kernels, CategorizeMatchesTable3Classes) {
  EXPECT_EQ(categorize(graph::OpKind::kLinear),
            profiler::KernelCategory::kMatMul);
  EXPECT_EQ(categorize(graph::OpKind::kConv2d),
            profiler::KernelCategory::kConv);
  EXPECT_EQ(categorize(graph::OpKind::kMaxPool),
            profiler::KernelCategory::kPooling);
  EXPECT_EQ(categorize(graph::OpKind::kAdaptivePool),
            profiler::KernelCategory::kPooling);
  EXPECT_EQ(categorize(graph::OpKind::kReLU),
            profiler::KernelCategory::kElementwise);
  EXPECT_FALSE(graph::is_device_op(graph::OpKind::kInput));
  EXPECT_TRUE(graph::is_device_op(graph::OpKind::kConcat));
}

TEST(Kernels, TableFromSppNetGraph) {
  const graph::Graph g =
      graph::build_inference_graph(detect::original_sppnet(), 100);
  const auto table = make_kernel_table(g);
  ASSERT_EQ(table.size(), g.size());
  // conv0 descriptor: positive flops, weights, threads.
  for (const KernelDesc& k : table) {
    if (k.name == "conv0") {
      EXPECT_GT(k.flops_per_sample, 0.0);
      EXPECT_GT(k.weight_bytes, 0.0);
      EXPECT_GT(k.threads_per_sample, 0.0);
    }
    if (k.name == "input" || k.name == "output") {
      EXPECT_EQ(k.flops_per_sample, 0.0);
    }
  }
  EXPECT_NEAR(total_weight_bytes(g),
              4.0 * detect::original_sppnet().parameter_count(), 1.0);
}

TEST(Memory, TracksLivePeakAndOom) {
  MemoryTracker tracker;
  const BufferId a = tracker.allocate(100, 1000);
  const BufferId b = tracker.allocate(400, 1000);
  EXPECT_EQ(tracker.live_bytes(), 500);
  EXPECT_EQ(tracker.peak_bytes(), 500);
  tracker.free(a);
  EXPECT_EQ(tracker.live_bytes(), 400);
  EXPECT_EQ(tracker.peak_bytes(), 500);
  EXPECT_THROW(tracker.allocate(700, 1000), dcn::Error);  // OOM
  EXPECT_THROW(tracker.free(a), dcn::Error);              // double free
  tracker.free(b);
  EXPECT_EQ(tracker.live_buffers(), 0);
}

TEST(Device, TimelineAdvancesMonotonically) {
  profiler::Recorder recorder;
  Device device(a5500_spec(), &recorder);
  device.load_library(10);
  const double t0 = device.host_time();
  EXPECT_GT(t0, 0.0);
  device.malloc(1 << 20);
  device.memcpy_h2d(1 << 20);
  const double t1 = device.host_time();
  EXPECT_GT(t1, t0);
  device.run_stage({{conv_kernel()}}, 4);
  device.synchronize();
  EXPECT_GE(device.host_time(), device.device_ready() - 1e-12);
}

TEST(Device, LibraryLoadsOnlyOnce) {
  profiler::Recorder recorder;
  Device device(a5500_spec(), &recorder);
  device.load_library(10);
  const double t0 = device.host_time();
  device.load_library(10);
  EXPECT_EQ(device.host_time(), t0);
  std::size_t loads = 0;
  for (const auto& span : recorder.api_spans()) {
    if (span.kind == profiler::ApiKind::kLibraryLoadData) ++loads;
  }
  EXPECT_EQ(loads, 1u);
}

TEST(Device, RunStageRequiresLibrary) {
  Device device(a5500_spec());
  EXPECT_THROW(device.run_stage({{conv_kernel()}}, 1), dcn::Error);
}

TEST(Device, SynchronizeDrainsQueue) {
  Device device(a5500_spec());
  device.load_library(1);
  device.run_stage({{conv_kernel()}}, 64);
  EXPECT_LT(device.host_time(), device.device_ready());
  device.synchronize();
  EXPECT_GE(device.host_time(), device.device_ready() - 1e-12);
}

TEST(Device, MemcpyDurationScalesWithBytes) {
  Device device(a5500_spec());
  device.load_library(1);
  const double t0 = device.host_time();
  device.memcpy_h2d(1 << 20);
  const double small = device.host_time() - t0;
  const double t1 = device.host_time();
  device.memcpy_h2d(64 << 20);
  const double large = device.host_time() - t1;
  EXPECT_GT(large, small * 10);
}

TEST(Device, ResetClocksKeepsMemory) {
  Device device(a5500_spec());
  device.load_library(1);
  device.malloc(123);
  device.reset_clocks();
  EXPECT_EQ(device.host_time(), 0.0);
  EXPECT_EQ(device.memory().live_bytes(), 123);
  // Library stays loaded: run_stage succeeds without another load.
  device.run_stage({{tiny_kernel()}}, 1);
  SUCCEED();
}

TEST(Device, RecorderCapturesKernelCategories) {
  profiler::Recorder recorder;
  Device device(a5500_spec(), &recorder);
  device.load_library(2);
  device.run_stage({{conv_kernel()}, {fc_kernel()}}, 2);
  device.synchronize();
  ASSERT_EQ(recorder.kernel_spans().size(), 2u);
  EXPECT_EQ(recorder.kernel_spans()[0].batch, 2);
}

}  // namespace
}  // namespace dcn::simgpu
