// Tests for the content-addressed schedule cache: cached runs must produce
// schedules and costs identical to uncached runs across the SPP-Net family,
// structurally identical blocks must hit across different architectures,
// and any cost-relevant input (spec, options, batch) must change the key.
// Hit/miss counters must surface in the profiler report and Chrome trace.
//
// The cache and counters are process-global, so every test starts from
// clear() / reset_counters(). These tests run under ThreadSanitizer in CI.
#include "ios/schedule_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "ios/scheduler.hpp"
#include "nas/search_space.hpp"
#include "profiler/counters.hpp"
#include "profiler/recorder.hpp"
#include "profiler/report.hpp"
#include "profiler/trace.hpp"
#include "simgpu/kernels.hpp"
#include "simgpu/spec.hpp"

namespace dcn::ios {
namespace {

constexpr std::int64_t kInputSize = 40;

graph::Graph graph_of(const detect::SppNetConfig& model) {
  return graph::build_inference_graph(model, kInputSize);
}

std::vector<detect::SppNetConfig> sppnet_family() {
  std::vector<detect::SppNetConfig> family{
      detect::original_sppnet(), detect::sppnet_candidate1(),
      detect::sppnet_candidate2(), detect::sppnet_candidate3()};
  // A few NAS coordinates beyond the named Table-2 models.
  for (const std::int64_t conv1 : {1, 9}) {
    nas::SearchPoint point;
    point.conv1_kernel = conv1;
    point.spp_first_level = 3;
    point.fc_sizes = {512};
    family.push_back(nas::materialize(point));
  }
  return family;
}

TEST(ScheduleCache, CachedSchedulesAndCostsMatchUncached) {
  ScheduleCache& cache = ScheduleCache::global();
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();
  for (const detect::SppNetConfig& model : sppnet_family()) {
    const graph::Graph g = graph_of(model);

    cache.set_enabled(false);
    const Schedule uncached = optimize_schedule(g, spec);
    const double uncached_cost = schedule_cost(g, spec, uncached, 1);

    cache.set_enabled(true);
    cache.clear();
    const Schedule cold = optimize_schedule(g, spec);
    const double cold_cost = schedule_cost(g, spec, cold, 1);
    const Schedule warm = optimize_schedule(g, spec);
    const double warm_cost = schedule_cost(g, spec, warm, 1);

    EXPECT_EQ(uncached, cold) << model.to_notation();
    EXPECT_EQ(cold, warm) << model.to_notation();
    EXPECT_EQ(uncached_cost, cold_cost) << model.to_notation();
    EXPECT_EQ(cold_cost, warm_cost) << model.to_notation();
    // The warm pass hit for every branched block and the memoized cost.
    const ScheduleCacheStats stats = cache.stats();
    EXPECT_GT(stats.block_hits, 0) << model.to_notation();
    EXPECT_GT(stats.cost_hits, 0) << model.to_notation();
  }
  cache.set_enabled(true);
}

TEST(ScheduleCache, StructurallyIdenticalBlocksHitAcrossArchitectures) {
  ScheduleCache& cache = ScheduleCache::global();
  cache.set_enabled(true);
  cache.clear();
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();

  // Same SPP level, different conv1 kernel and FC width: the trunk's odd
  // kernels are same-padded, so the SPP block's kernel descriptors are
  // identical and its DP solution rebases onto the new graph.
  nas::SearchPoint a;
  a.conv1_kernel = 3;
  a.spp_first_level = 4;
  a.fc_sizes = {1024};
  optimize_schedule(graph_of(nas::materialize(a)), spec);
  const ScheduleCacheStats after_first = cache.stats();
  EXPECT_EQ(after_first.block_hits, 0);
  EXPECT_GT(after_first.block_misses, 0);

  nas::SearchPoint b = a;
  b.conv1_kernel = 7;
  b.fc_sizes = {256};
  optimize_schedule(graph_of(nas::materialize(b)), spec);
  const ScheduleCacheStats after_second = cache.stats();
  EXPECT_GT(after_second.block_hits, 0);
  EXPECT_EQ(after_second.block_misses, after_first.block_misses);

  // A different SPP first level is a different block: miss, not hit.
  nas::SearchPoint c = a;
  c.spp_first_level = 2;
  optimize_schedule(graph_of(nas::materialize(c)), spec);
  const ScheduleCacheStats after_third = cache.stats();
  EXPECT_EQ(after_third.block_hits, after_second.block_hits);
  EXPECT_GT(after_third.block_misses, after_second.block_misses);
}

TEST(ScheduleCache, FusedAndUnfusedTwinsNeverShareKeys) {
  // Regression (mirror of the cross-precision fix): a FusedConvReLU's work
  // profile is byte-identical to the plain conv's — the ReLU rides the
  // epilogue store for free, by design of the fused-op accounting. Before
  // the epilogue tag landed in append_kernel, a fused block and its
  // unfused twin collided and traded DP solutions.
  const auto twin = [](graph::OpKind kind) {
    graph::Graph g;
    const graph::OpId in =
        g.add_op(graph::OpKind::kInput, "in", {}, {},
                 graph::TensorDesc{{8, 8, 8}});
    graph::OpAttrs conv;
    conv.kernel = 3;
    conv.stride = 1;
    conv.padding = 1;
    conv.out_channels = 8;
    const graph::OpId c =
        g.add_op(kind, "conv0", conv, {in}, graph::TensorDesc{{8, 8, 8}});
    g.add_op(graph::OpKind::kOutput, "out", {}, {c},
             graph::TensorDesc{{8, 8, 8}});
    return g;
  };
  const graph::Graph unfused = twin(graph::OpKind::kConv2d);
  const graph::Graph fused = twin(graph::OpKind::kFusedConvReLU);
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();

  // Identical work profiles: the tag is the only thing separating them.
  const simgpu::KernelDesc plain = simgpu::make_kernel_desc(unfused, 1);
  const simgpu::KernelDesc epi = simgpu::make_kernel_desc(fused, 1);
  EXPECT_EQ(plain.flops_per_sample, epi.flops_per_sample);
  EXPECT_EQ(plain.activation_bytes_per_sample,
            epi.activation_bytes_per_sample);
  EXPECT_EQ(plain.weight_bytes, epi.weight_bytes);
  EXPECT_EQ(plain.threads_per_sample, epi.threads_per_sample);
  EXPECT_EQ(plain.category, epi.category);
  EXPECT_NE(plain.epilogue, epi.epilogue);

  const std::vector<graph::OpId> ops{1};
  const IosOptions options;
  EXPECT_NE(block_cache_key(unfused, ops, spec, options),
            block_cache_key(fused, ops, spec, options));

  const Schedule unfused_schedule = sequential_schedule(unfused);
  const Schedule fused_schedule = sequential_schedule(fused);
  EXPECT_NE(cost_cache_key(unfused, spec, unfused_schedule, 1),
            cost_cache_key(fused, spec, fused_schedule, 1));
}

TEST(ScheduleCache, KeyIsSensitiveToSpecOptionsAndBatch) {
  ScheduleCache& cache = ScheduleCache::global();
  cache.set_enabled(true);
  cache.clear();
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();
  const graph::Graph g = graph_of(detect::original_sppnet());

  optimize_schedule(g, spec);
  const std::int64_t baseline_misses = cache.stats().block_misses;

  // A different device parameterization must not reuse the solution.
  simgpu::DeviceSpec slower = spec;
  slower.peak_flops /= 2.0;
  optimize_schedule(g, slower);
  EXPECT_EQ(cache.stats().block_hits, 0);
  EXPECT_GT(cache.stats().block_misses, baseline_misses);

  // Same for the pruning width and the batch the DP prices for.
  IosOptions narrow;
  narrow.max_stage_ops = 2;
  optimize_schedule(g, spec, narrow);
  IosOptions batched;
  batched.batch = 8;
  optimize_schedule(g, spec, batched);
  EXPECT_EQ(cache.stats().block_hits, 0);

  // The identical call, by contrast, hits.
  optimize_schedule(g, spec);
  EXPECT_GT(cache.stats().block_hits, 0);

  // Cost memoization distinguishes batch sizes.
  const Schedule schedule = optimize_schedule(g, spec);
  const double at_1 = schedule_cost(g, spec, schedule, 1);
  const double at_8 = schedule_cost(g, spec, schedule, 8);
  EXPECT_NE(at_1, at_8);
  EXPECT_EQ(schedule_cost(g, spec, schedule, 1), at_1);
  EXPECT_EQ(schedule_cost(g, spec, schedule, 8), at_8);
}

TEST(ScheduleCache, DisabledCacheNeitherStoresNorCounts) {
  ScheduleCache& cache = ScheduleCache::global();
  cache.set_enabled(false);
  cache.clear();
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();
  const graph::Graph g = graph_of(detect::original_sppnet());
  optimize_schedule(g, spec);
  optimize_schedule(g, spec);
  const ScheduleCacheStats stats = cache.stats();
  EXPECT_EQ(stats.block_hits, 0);
  EXPECT_EQ(stats.block_misses, 0);
  EXPECT_EQ(cache.size(), 0u);
  cache.set_enabled(true);
}

TEST(ScheduleCache, ConcurrentLookupsAreThreadSafe) {
  // NAS workers race optimize_schedule over the same and different graphs;
  // under TSan this exercises the cache's internal locking.
  ScheduleCache& cache = ScheduleCache::global();
  cache.set_enabled(true);
  cache.clear();
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();
  const auto family = sppnet_family();
  std::vector<Schedule> schedules(family.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < family.size(); ++t) {
    threads.emplace_back([t, &family, &spec, &schedules] {
      const graph::Graph g = graph_of(family[t]);
      for (int round = 0; round < 3; ++round) {
        const Schedule s = optimize_schedule(g, spec);
        schedule_cost(g, spec, s, 1);
        schedules[t] = s;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Racing workers must have converged on the deterministic solutions.
  cache.set_enabled(false);
  for (std::size_t t = 0; t < family.size(); ++t) {
    const graph::Graph g = graph_of(family[t]);
    EXPECT_EQ(schedules[t], optimize_schedule(g, spec));
  }
  cache.set_enabled(true);
}

TEST(ScheduleCacheCounters, SurfaceInReportAndChromeTrace) {
  ScheduleCache& cache = ScheduleCache::global();
  cache.set_enabled(true);
  cache.clear();
  profiler::reset_counters();
  const simgpu::DeviceSpec spec = simgpu::a5500_spec();
  const graph::Graph g = graph_of(detect::original_sppnet());
  optimize_schedule(g, spec);  // misses
  optimize_schedule(g, spec);  // hits

  EXPECT_GT(profiler::counter_value("schedule_cache.hit"), 0);
  EXPECT_GT(profiler::counter_value("schedule_cache.miss"), 0);

  profiler::Recorder recorder;
  const std::string report = profiler::render_report(recorder);
  EXPECT_NE(report.find("Counters:"), std::string::npos);
  EXPECT_NE(report.find("schedule_cache.hit"), std::string::npos);

  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(trace.find("schedule_cache.miss"), std::string::npos);
  profiler::reset_counters();
}

}  // namespace
}  // namespace dcn::ios
