// Tests for the nsys-like profiler: recorder, aggregate reports, and
// chrome-trace export.
#include <gtest/gtest.h>

#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "profiler/counters.hpp"
#include "profiler/report.hpp"
#include "profiler/trace.hpp"
#include "simgpu/device.hpp"

namespace dcn::profiler {
namespace {

Recorder sample_recorder() {
  Recorder recorder;
  recorder.record_api(ApiKind::kLibraryLoadData, "module", 0.0, 8e-3);
  recorder.record_api(ApiKind::kLaunchKernel, "conv0", 8e-3, 3e-6);
  recorder.record_api(ApiKind::kLaunchKernel, "fc0", 8.01e-3, 3e-6);
  recorder.record_api(ApiKind::kDeviceSynchronize, "sync", 9e-3, 1e-3);
  recorder.record_kernel(KernelCategory::kConv, "conv0", 8.1e-3, 4e-5, 4);
  recorder.record_kernel(KernelCategory::kMatMul, "fc0", 8.2e-3, 1.6e-4, 4);
  recorder.record_kernel(KernelCategory::kPooling, "pool0", 8.3e-3, 1e-5, 4);
  recorder.record_memop(MemopKind::kH2D, "input", 1e-3, 2e-5, 163840);
  recorder.record_memop(MemopKind::kH2D, "weights", 2e-3, 6e-5, 1 << 20);
  recorder.record_memop(MemopKind::kD2H, "output", 9.5e-3, 1e-5, 80);
  return recorder;
}

TEST(ApiUsage, SharesSumToOneAndSortDescending) {
  const Recorder recorder = sample_recorder();
  const auto rows = api_usage(recorder);
  ASSERT_EQ(rows.size(), 3u);  // libload, launch (2 calls), sync
  double total_share = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    total_share += rows[i].share;
    if (i > 0) {
      EXPECT_LE(rows[i].total_seconds, rows[i - 1].total_seconds);
    }
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  EXPECT_EQ(rows.front().kind, ApiKind::kLibraryLoadData);
}

TEST(ApiUsage, CallCountsAggregated) {
  const auto rows = api_usage(sample_recorder());
  for (const ApiUsageRow& row : rows) {
    if (row.kind == ApiKind::kLaunchKernel) {
      EXPECT_EQ(row.calls, 2);
    }
  }
}

TEST(ApiShare, LookupSingleApi) {
  const Recorder recorder = sample_recorder();
  const double lib = api_share(recorder, ApiKind::kLibraryLoadData);
  const double sync = api_share(recorder, ApiKind::kDeviceSynchronize);
  EXPECT_GT(lib, 0.8);  // 8 ms of ~9 ms
  EXPECT_GT(sync, 0.05);
  EXPECT_EQ(api_share(recorder, ApiKind::kMemAlloc), 0.0);
}

TEST(KernelUsage, CategorySharesMatchDurations) {
  const Recorder recorder = sample_recorder();
  const auto rows = kernel_usage(recorder);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.front().category, KernelCategory::kMatMul);  // 160 us
  double total = 0.0;
  for (const auto& row : rows) total += row.share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(kernel_share(recorder, KernelCategory::kMatMul),
              1.6e-4 / (1.6e-4 + 4e-5 + 1e-5), 1e-9);
}

TEST(MemopSummary, TotalsAndMeans) {
  const Recorder recorder = sample_recorder();
  const MemopSummary all = memop_summary(recorder);
  EXPECT_EQ(all.count, 3);
  EXPECT_EQ(all.total_bytes, 163840 + (1 << 20) + 80);
  EXPECT_NEAR(all.total_seconds, 9e-5, 1e-12);
  const MemopSummary h2d = memop_summary(recorder, MemopKind::kH2D);
  EXPECT_EQ(h2d.count, 2);
  EXPECT_NEAR(h2d.mean_seconds, 4e-5, 1e-12);
  const MemopSummary dtoD =
      memop_summary(recorder, MemopKind::kDeviceToDevice);
  EXPECT_EQ(dtoD.count, 0);
  EXPECT_EQ(dtoD.mean_seconds, 0.0);
}

TEST(Recorder, DisabledDropsEverything) {
  Recorder recorder;
  recorder.set_enabled(false);
  recorder.record_api(ApiKind::kLaunchKernel, "x", 0.0, 1.0);
  recorder.record_kernel(KernelCategory::kConv, "x", 0.0, 1.0, 1);
  recorder.record_memop(MemopKind::kH2D, "x", 0.0, 1.0, 1);
  EXPECT_TRUE(recorder.api_spans().empty());
  EXPECT_TRUE(recorder.kernel_spans().empty());
  EXPECT_TRUE(recorder.memop_spans().empty());
}

TEST(Recorder, ClearResets) {
  Recorder recorder = sample_recorder();
  recorder.clear();
  EXPECT_TRUE(recorder.api_spans().empty());
  EXPECT_TRUE(api_usage(recorder).empty());
  EXPECT_EQ(memop_summary(recorder).count, 0);
}

TEST(Report, RendersAllThreeSections) {
  const std::string report = render_report(sample_recorder());
  EXPECT_NE(report.find("CUDA API Statistics"), std::string::npos);
  EXPECT_NE(report.find("CUDA Kernel Statistics"), std::string::npos);
  EXPECT_NE(report.find("CUDA Memory Operation Statistics"),
            std::string::npos);
  EXPECT_NE(report.find("cuLibraryLoadData"), std::string::npos);
  EXPECT_NE(report.find("cudaDeviceSynchronize"), std::string::npos);
  EXPECT_NE(report.find("Matrix Multiplication"), std::string::npos);
  EXPECT_NE(report.find("HtoD"), std::string::npos);
}

TEST(Names, EnumStringsAreStable) {
  EXPECT_STREQ(api_kind_name(ApiKind::kLibraryLoadData),
               "cuLibraryLoadData");
  EXPECT_STREQ(api_kind_name(ApiKind::kDeviceSynchronize),
               "cudaDeviceSynchronize");
  EXPECT_STREQ(kernel_category_name(KernelCategory::kMatMul),
               "Matrix Multiplication");
  EXPECT_STREQ(kernel_category_name(KernelCategory::kConv), "Conv");
  EXPECT_STREQ(kernel_category_name(KernelCategory::kPooling), "Pooling");
  EXPECT_STREQ(memop_kind_name(MemopKind::kH2D), "HtoD");
}

TEST(EmptyRecorder, ReportsAreWellDefined) {
  Recorder recorder;
  EXPECT_TRUE(api_usage(recorder).empty());
  EXPECT_TRUE(kernel_usage(recorder).empty());
  EXPECT_EQ(api_share(recorder, ApiKind::kLaunchKernel), 0.0);
  EXPECT_EQ(kernel_share(recorder, KernelCategory::kConv), 0.0);
  const std::string report = render_report(recorder);
  EXPECT_NE(report.find("CUDA API Statistics"), std::string::npos);
}

TEST(ChromeTrace, ContainsAllSpanRows) {
  profiler::Recorder recorder;
  recorder.record_api(profiler::ApiKind::kLaunchKernel, "conv0", 0.0, 3e-6);
  recorder.record_kernel(profiler::KernelCategory::kConv, "conv0", 1e-6,
                         4e-5, 8);
  recorder.record_memop(profiler::MemopKind::kH2D, "input", 0.0, 2e-5, 1024);
  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("cudaLaunchKernel"), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"kernel\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\": \"memop\""), std::string::npos);
  EXPECT_NE(trace.find("\"batch\": 8"), std::string::npos);
  EXPECT_NE(trace.find("\"bytes\": 1024"), std::string::npos);
}

TEST(ChromeTrace, EscapesAndWrites) {
  profiler::Recorder recorder;
  recorder.record_api(profiler::ApiKind::kMemAlloc, "we\"ird\nname", 0.0,
                      1e-6);
  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("we\\\"ird\\nname"), std::string::npos);
  const std::string path = testing::TempDir() + "/dcn_trace.json";
  profiler::write_chrome_trace(recorder, path);
  SUCCEED();
}

TEST(Counters, SurfaceInReportAndChromeTrace) {
  reset_counters();
  counter_add("test_profiler.events", 3);
  EXPECT_EQ(counter_value("test_profiler.events"), 3);

  Recorder recorder;
  const std::string report = render_report(recorder);
  const std::size_t section = report.find("\nCounters:\n");
  ASSERT_NE(section, std::string::npos);
  EXPECT_NE(report.find("test_profiler.events", section), std::string::npos);

  const std::string trace = to_chrome_trace(recorder);
  EXPECT_NE(trace.find("{\"name\": \"test_profiler.events\", \"cat\": "
                       "\"counter\", \"ph\": \"C\""),
            std::string::npos);
  reset_counters();
}

TEST(ChromeTrace, FullSimulatedSessionExports) {
  const auto spec = simgpu::a5500_spec();
  const graph::Graph g =
      graph::build_inference_graph(detect::original_sppnet(), 64);
  profiler::Recorder recorder;
  simgpu::Device device(spec, &recorder);
  ios::InferenceSession session(g, ios::optimize_schedule(g, spec), device);
  session.initialize();
  (void)session.run(4);
  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("cuLibraryLoadData"), std::string::npos);
  EXPECT_NE(trace.find("spp_pool"), std::string::npos);
}

}  // namespace
}  // namespace dcn::profiler
