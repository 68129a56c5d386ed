// Tests for the fault-injection layer and the recovery machinery above it:
// typed device errors, seeded fault schedules, retry/backoff policy,
// ResilientSession, and fault-tolerant + resumable NAS campaigns.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/error.hpp"
#include "core/retry.hpp"
#include "core/rng.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/builder.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "nas/runner.hpp"
#include "nas/strategy.hpp"
#include "profiler/recorder.hpp"
#include "profiler/report.hpp"
#include "profiler/trace.hpp"
#include "simgpu/device.hpp"
#include "simgpu/faults.hpp"

namespace dcn {
namespace {

using simgpu::Device;
using simgpu::FaultInjector;
using simgpu::FaultKind;
using simgpu::FaultPlan;

simgpu::KernelDesc test_kernel(const char* name = "k") {
  simgpu::KernelDesc k;
  k.name = name;
  k.category = profiler::KernelCategory::kConv;
  k.flops_per_sample = 4e8;
  k.activation_bytes_per_sample = 4e6;
  k.weight_bytes = 3e5;
  k.threads_per_sample = 1e5;
  return k;
}

// --- Fault plan & injector -------------------------------------------------

TEST(FaultPlan, ParsesCliSpecs) {
  const FaultPlan plan = FaultPlan::parse(
      "launch:p=0.05;sync_hang:at=2,hang=0.1;memcpy_slow:at=0,factor=8", 42);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kLaunchFailure);
  EXPECT_DOUBLE_EQ(plan.rules[0].probability, 0.05);
  EXPECT_EQ(plan.rules[0].max_fires, -1);  // stochastic rules unbounded
  EXPECT_EQ(plan.rules[1].kind, FaultKind::kSyncHang);
  EXPECT_EQ(plan.rules[1].at_op, 2);
  EXPECT_DOUBLE_EQ(plan.hang_seconds, 0.1);
  EXPECT_EQ(plan.rules[2].kind, FaultKind::kMemcpySlowdown);
  EXPECT_DOUBLE_EQ(plan.rules[2].slowdown_factor, 8.0);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus:p=0.1"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("launch:frequency=2"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("launch:p"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("launch:p=lots"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("launch"), ConfigError);  // no trigger
}

TEST(FaultInjector, ScheduledRuleFiresAtOpAndRespectsMaxFires) {
  FaultPlan plan;
  plan.fail_at(FaultKind::kLaunchFailure, 2, /*max_fires=*/2);
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.check(FaultKind::kLaunchFailure, 0.0));  // op 0
  EXPECT_FALSE(injector.check(FaultKind::kLaunchFailure, 0.0));  // op 1
  EXPECT_TRUE(injector.check(FaultKind::kLaunchFailure, 0.0));   // op 2
  EXPECT_TRUE(injector.check(FaultKind::kLaunchFailure, 0.0));   // op 3
  EXPECT_FALSE(injector.check(FaultKind::kLaunchFailure, 0.0));  // spent
  EXPECT_EQ(injector.fired(FaultKind::kLaunchFailure), 2);
  EXPECT_EQ(injector.ops_seen(FaultKind::kLaunchFailure), 5);
  // Other kinds have independent counters.
  EXPECT_FALSE(injector.check(FaultKind::kAllocFailure, 0.0));
}

TEST(FaultInjector, TimeTriggeredRuleWaitsForTimestamp) {
  FaultPlan plan;
  plan.fail_after(FaultKind::kSyncHang, 1.5);
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.check(FaultKind::kSyncHang, 0.0));
  EXPECT_FALSE(injector.check(FaultKind::kSyncHang, 1.49));
  const auto fault = injector.check(FaultKind::kSyncHang, 2.0);
  ASSERT_TRUE(fault.has_value());
  EXPECT_DOUBLE_EQ(fault->time, 2.0);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.fail_with_probability(FaultKind::kLaunchFailure, 0.3);
  plan.fail_with_probability(FaultKind::kMemcpyCorruption, 0.2);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 200; ++i) {
    const FaultKind kind = (i % 3 == 0) ? FaultKind::kMemcpyCorruption
                                        : FaultKind::kLaunchFailure;
    a.check(kind, 0.001 * i);
    b.check(kind, 0.001 * i);
  }
  ASSERT_GT(a.total_fired(), 0);
  ASSERT_EQ(a.injected().size(), b.injected().size());
  for (std::size_t i = 0; i < a.injected().size(); ++i) {
    EXPECT_EQ(a.injected()[i].kind, b.injected()[i].kind);
    EXPECT_EQ(a.injected()[i].op_index, b.injected()[i].op_index);
  }
  // A different seed produces a different schedule.
  plan.seed = 99;
  FaultInjector c(plan);
  int differences = 0;
  for (int i = 0; i < 200; ++i) {
    const FaultKind kind = (i % 3 == 0) ? FaultKind::kMemcpyCorruption
                                        : FaultKind::kLaunchFailure;
    c.check(kind, 0.001 * i);
  }
  if (c.total_fired() != a.total_fired()) {
    ++differences;
  } else {
    for (int i = 0; i < a.total_fired(); ++i) {
      if (a.injected()[static_cast<std::size_t>(i)].op_index !=
          c.injected()[static_cast<std::size_t>(i)].op_index) {
        ++differences;
      }
    }
  }
  EXPECT_GT(differences, 0);
}

// --- Typed device errors ---------------------------------------------------

TEST(TypedErrors, MemoryTrackerReportsOomWithContext) {
  simgpu::MemoryTracker tracker;
  tracker.allocate(600, 1000);
  try {
    tracker.allocate(500, 1000);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& oom) {
    EXPECT_FALSE(oom.retryable());
    EXPECT_EQ(oom.requested_bytes(), 500);
    EXPECT_EQ(oom.live_bytes(), 600);
    EXPECT_EQ(oom.capacity_bytes(), 1000);
    EXPECT_NE(std::string(oom.what()).find("600 live"), std::string::npos);
  }
}

TEST(TypedErrors, FreeOfUnknownBufferIsFatalDeviceFault) {
  simgpu::MemoryTracker tracker;
  const simgpu::BufferId id = tracker.allocate(100, 1000);
  tracker.free(id);
  try {
    tracker.free(id);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& fault) {
    EXPECT_FALSE(fault.retryable());
    EXPECT_NE(std::string(fault.what()).find("already-freed"),
              std::string::npos);
  }
  // The taxonomy stays compatible with the dcn::Error base.
  EXPECT_THROW(tracker.free(id), Error);
}

TEST(TypedErrors, DeviceMallocBeyondCapacityThrowsTyped) {
  simgpu::DeviceSpec spec = simgpu::tiny_spec();
  Device device(spec);
  EXPECT_THROW(device.malloc(spec.dram_bytes + 1), OutOfMemoryError);
}

// --- Device-level fault injection ------------------------------------------

TEST(DeviceFaults, InjectedLaunchFailureIsRetryableAndRecorded) {
  profiler::Recorder recorder;
  Device device(simgpu::a5500_spec(), &recorder);
  FaultPlan plan;
  plan.fail_at(FaultKind::kLaunchFailure, 0);
  device.set_fault_plan(plan);
  device.load_library(1);
  try {
    device.run_stage({{test_kernel()}}, 1);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& fault) {
    EXPECT_TRUE(fault.retryable());
    EXPECT_FALSE(fault.requires_reset());
  }
  ASSERT_EQ(recorder.fault_spans().size(), 1u);
  EXPECT_EQ(recorder.fault_spans()[0].name, "launch_failure");
  // The rule is spent; the retried stage succeeds.
  device.run_stage({{test_kernel()}}, 1);
}

TEST(DeviceFaults, InjectedAllocFailureIsRetryableOom) {
  Device device(simgpu::a5500_spec());
  FaultPlan plan;
  plan.fail_at(FaultKind::kAllocFailure, 0);
  device.set_fault_plan(plan);
  try {
    device.malloc(1 << 20);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& oom) {
    EXPECT_TRUE(oom.retryable());
    EXPECT_EQ(oom.requested_bytes(), 1 << 20);
  }
  EXPECT_EQ(device.memory().live_bytes(), 0);
  device.malloc(1 << 20);  // retry succeeds
  EXPECT_EQ(device.memory().live_bytes(), 1 << 20);
}

TEST(DeviceFaults, MemcpySlowdownStretchesTransferWithoutError) {
  Device clean(simgpu::a5500_spec());
  clean.memcpy_h2d(32 << 20);
  const double clean_time = clean.host_time();

  Device slow(simgpu::a5500_spec());
  FaultPlan plan;
  plan.fail_at(FaultKind::kMemcpySlowdown, 0);
  plan.rules.back().slowdown_factor = 8.0;
  slow.set_fault_plan(plan);
  slow.memcpy_h2d(32 << 20);
  EXPECT_GT(slow.host_time(), 4.0 * clean_time);
}

TEST(DeviceFaults, MemcpyCorruptionThrowsAfterChargingTime) {
  Device device(simgpu::a5500_spec());
  FaultPlan plan;
  plan.fail_at(FaultKind::kMemcpyCorruption, 0);
  device.set_fault_plan(plan);
  EXPECT_THROW(device.memcpy_h2d(1 << 20), DeviceFault);
  EXPECT_GT(device.host_time(), 0.0);  // the failed copy still cost time
  device.memcpy_h2d(1 << 20);          // transient: retry succeeds
}

TEST(DeviceFaults, SyncHangTripsWatchdogAndHardResetRecovers) {
  Device device(simgpu::a5500_spec());
  FaultPlan plan;
  plan.hang_seconds = 0.05;
  plan.fail_at(FaultKind::kSyncHang, 0);
  device.set_fault_plan(plan);
  device.set_sync_timeout(0.01);
  device.load_library(1);
  const simgpu::BufferId buffer = device.malloc(1 << 20);
  device.run_stage({{test_kernel()}}, 1);
  try {
    device.synchronize();
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& timeout) {
    EXPECT_TRUE(timeout.retryable());
    EXPECT_TRUE(timeout.requires_reset());
    EXPECT_DOUBLE_EQ(timeout.timeout_seconds(), 0.01);
  }
  (void)buffer;
  const double before_reset = device.host_time();
  device.hard_reset();
  EXPECT_GT(device.host_time(), before_reset);
  EXPECT_EQ(device.memory().live_bytes(), 0);
  // Library was dropped: stages need a reload first.
  EXPECT_THROW(device.run_stage({{test_kernel()}}, 1), Error);
  device.load_library(1);
  device.run_stage({{test_kernel()}}, 1);
  device.synchronize();  // hang rule spent; queue drains normally
}

TEST(DeviceFaults, HangWithoutWatchdogJustStalls) {
  Device device(simgpu::a5500_spec());
  FaultPlan plan;
  plan.hang_seconds = 0.25;
  plan.fail_at(FaultKind::kSyncHang, 0);
  device.set_fault_plan(plan);
  device.load_library(1);
  device.run_stage({{test_kernel()}}, 1);
  device.synchronize();
  EXPECT_GE(device.host_time(), 0.25);
}

// --- Retry policy ----------------------------------------------------------

TEST(Retry, BackoffDelaysAreExactWithoutJitter) {
  RetryPolicy policy;
  policy.base_backoff = 1e-3;
  policy.multiplier = 2.0;
  policy.max_backoff = 3e-3;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 1, rng), 1e-3);
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 2, rng), 2e-3);
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 3, rng), 3e-3);  // capped
  EXPECT_DOUBLE_EQ(backoff_delay(policy, 9, rng), 3e-3);
}

TEST(Retry, JitterStaysWithinBand) {
  RetryPolicy policy;
  policy.base_backoff = 1e-3;
  policy.jitter = 0.5;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double delay = backoff_delay(policy, 1, rng);
    EXPECT_GE(delay, 0.5e-3);
    EXPECT_LT(delay, 1.5e-3);
  }
}

TEST(Retry, WithRetriesCountsAttemptsExactly) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  RetryStats stats;
  int failures_left = 2;
  const int result = with_retries(
      policy, stats,
      [&] {
        if (failures_left > 0) {
          --failures_left;
          throw DeviceFault("transient", /*retryable=*/true);
        }
        return 7;
      },
      [](const std::exception&, int) {});
  EXPECT_EQ(result, 7);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
}

TEST(Retry, NonRetryableAndExhaustionRethrow) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  {
    RetryStats stats;
    EXPECT_THROW(with_retries(
                     policy, stats,
                     [&]() -> int {
                       throw DeviceFault("fatal", /*retryable=*/false);
                     },
                     [](const std::exception&, int) {}),
                 DeviceFault);
    EXPECT_EQ(stats.attempts, 1);  // no retries for fatal faults
  }
  {
    RetryStats stats;
    EXPECT_THROW(with_retries(
                     policy, stats,
                     [&]() -> int {
                       throw DeviceFault("stuck", /*retryable=*/true);
                     },
                     [](const std::exception&, int) {}),
                 DeviceFault);
    EXPECT_EQ(stats.attempts, 3);
    EXPECT_EQ(stats.retries, 2);
  }
}

TEST(Retry, ClassifiersInspectTheTaxonomy) {
  EXPECT_TRUE(is_retryable(DeviceFault("x", true)));
  EXPECT_FALSE(is_retryable(DeviceFault("x", false)));
  EXPECT_FALSE(is_retryable(Error("plain")));
  EXPECT_TRUE(requires_reset(TimeoutError("hang", 0.01)));
  EXPECT_FALSE(requires_reset(DeviceFault("x", true)));
}

// --- Measurement hardening -------------------------------------------------

TEST(MeasureLatency, RejectsBadArguments) {
  const graph::Graph g =
      graph::build_inference_graph(detect::sppnet_candidate2(), 32);
  const ios::Schedule schedule = ios::sequential_schedule(g);
  Device device(simgpu::a5500_spec());
  EXPECT_THROW(ios::measure_latency(g, schedule, device, 1, 1, 0),
               ConfigError);
  EXPECT_THROW(ios::measure_latency(g, schedule, device, 1, -1, 3),
               ConfigError);
  EXPECT_THROW(ios::measure_latency(g, schedule, device, 0, 1, 3),
               ConfigError);
  EXPECT_GT(ios::measure_latency(g, schedule, device, 1, 0, 1), 0.0);
}

// --- ResilientSession ------------------------------------------------------

class ResilientSessionTest : public ::testing::Test {
 protected:
  ResilientSessionTest()
      : graph_(graph::build_inference_graph(detect::sppnet_candidate2(), 32)),
        schedule_(ios::sequential_schedule(graph_)) {}

  graph::Graph graph_;
  ios::Schedule schedule_;
};

TEST_F(ResilientSessionTest, RetryAndBackoffCountsAreExact) {
  Device device(simgpu::a5500_spec());
  FaultPlan plan;
  plan.fail_at(FaultKind::kLaunchFailure, 0, /*max_fires=*/2);
  device.set_fault_plan(plan);
  ios::ResilientOptions options;
  options.retry.max_attempts = 4;
  options.retry.base_backoff = 1e-3;
  options.retry.multiplier = 2.0;
  options.retry.max_backoff = 1.0;
  options.retry.jitter = 0.0;
  ios::ResilientSession session(graph_, schedule_, device, options);
  session.initialize();
  const ios::RunResult result = session.run(1);
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_EQ(session.stats().runs, 1);
  EXPECT_EQ(session.stats().completed, 1);
  EXPECT_EQ(session.stats().transient_retries, 2);
  EXPECT_EQ(session.stats().reinitializations, 0);
  EXPECT_DOUBLE_EQ(session.stats().backoff_seconds, 1e-3 + 2e-3);
}

TEST_F(ResilientSessionTest, TimeoutTriggersReinitializeAndSucceeds) {
  profiler::Recorder recorder;
  Device device(simgpu::a5500_spec(), &recorder);
  FaultPlan plan;
  plan.hang_seconds = 0.5;
  plan.fail_at(FaultKind::kSyncHang, 0);
  device.set_fault_plan(plan);
  ios::ResilientOptions options;
  options.sync_timeout = 0.01;
  options.retry.max_attempts = 3;
  options.retry.jitter = 0.0;
  ios::ResilientSession session(graph_, schedule_, device, options);
  session.initialize();
  const ios::RunResult result = session.run(1);
  EXPECT_GT(result.latency_seconds, 0.0);
  EXPECT_EQ(session.stats().transient_retries, 1);
  EXPECT_EQ(session.stats().reinitializations, 1);
  // The recovery shows up in the trace: a sync_hang fault, then the
  // reinitialize + retry events.
  bool saw_hang = false, saw_reinit = false, saw_retry = false;
  for (const profiler::FaultSpan& span : recorder.fault_spans()) {
    if (span.name == "sync_hang") saw_hang = true;
    if (span.name == "reinitialize") saw_reinit = true;
    if (span.name == "retry") saw_retry = true;
  }
  EXPECT_TRUE(saw_hang);
  EXPECT_TRUE(saw_reinit);
  EXPECT_TRUE(saw_retry);
}

TEST_F(ResilientSessionTest, TryRunDegradesGracefully) {
  Device device(simgpu::a5500_spec());
  FaultPlan plan;
  plan.fail_at(FaultKind::kLaunchFailure, 0, /*max_fires=*/100);
  device.set_fault_plan(plan);
  ios::ResilientOptions options;
  options.retry.max_attempts = 2;
  ios::ResilientSession session(graph_, schedule_, device, options);
  session.initialize();
  EXPECT_FALSE(session.try_run(1).has_value());
  EXPECT_EQ(session.stats().degraded, 1);
  EXPECT_FALSE(session.stats().last_error.empty());
}

TEST_F(ResilientSessionTest, ResilientMeasurementSurvivesTransients) {
  Device device(simgpu::a5500_spec());
  FaultPlan plan;
  plan.fail_at(FaultKind::kLaunchFailure, 0, /*max_fires=*/1);
  plan.fail_at(FaultKind::kMemcpyCorruption, 1, /*max_fires=*/1);
  device.set_fault_plan(plan);
  ios::ResilientOptions options;
  options.retry.max_attempts = 4;
  ios::SessionStats stats;
  const double latency = ios::measure_latency_resilient(
      graph_, schedule_, device, 1, 1, 3, options, &stats);
  EXPECT_GT(latency, 0.0);
  EXPECT_GE(stats.transient_retries, 1);
  EXPECT_EQ(stats.degraded, 0);

  // The same model measured on a clean device agrees: faults perturb the
  // timeline, not the reported steady-state latency.
  Device clean(simgpu::a5500_spec());
  const double clean_latency =
      ios::measure_latency(graph_, schedule_, clean, 1, 1, 3);
  EXPECT_NEAR(latency, clean_latency, 1e-12);
}

// --- Fault-tolerant NAS campaigns ------------------------------------------

nas::SearchSpace small_space() {
  nas::SearchSpace space;
  space.conv1_kernels = {3, 5};
  space.spp_first_levels = {2, 4};
  space.fc_widths = {64, 128};
  space.num_fc_layers = 1;
  return space;
}

nas::RunnerConfig quiet_config(int max_trials) {
  nas::RunnerConfig config;
  config.max_trials = max_trials;
  config.input_size = 32;
  config.verbose = false;
  return config;
}

double proxy_accuracy(const detect::SppNetConfig& model) {
  return 0.9 + 1e-9 * static_cast<double>(model.parameter_count());
}

TEST(FaultTolerantNas, SurvivesThrowingEvaluatorAndFillsAllRows) {
  nas::GridSearchStrategy strategy(small_space());
  const nas::RunnerConfig config = quiet_config(6);
  int calls = 0;
  const nas::TrialDatabase db = nas::run_multi_trial(
      strategy,
      [&](const detect::SppNetConfig& model) {
        if (++calls == 3) throw Error("synthetic training crash");
        return proxy_accuracy(model);
      },
      config);
  ASSERT_EQ(db.size(), 6u);
  EXPECT_EQ(db.num_failed(), 1u);
  const nas::Trial& failed = db.trial(2);
  EXPECT_EQ(failed.status, nas::TrialStatus::kFailed);
  EXPECT_NE(failed.failure_reason.find("synthetic training crash"),
            std::string::npos);
  EXPECT_EQ(failed.metrics.average_precision, 0.0);
  // Rankings skip the failed row.
  const auto best = db.best_by_accuracy();
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(best->ok());
  EXPECT_NE(best->index, failed.index);
  ASSERT_TRUE(db.best_by_throughput().has_value());
  EXPECT_TRUE(db.best_by_throughput()->ok());
}

TEST(FaultTolerantNas, RetryableDeviceFaultGetsTrialRetried) {
  // Every launch fails on attempt 1's injector schedule, but the retried
  // attempt draws a fresh (fault-free) salt only for probability rules —
  // a persistent at_op rule keeps failing, so exhaust the session budget
  // fast and rely on the per-attempt reseed of a probability rule instead.
  nas::GridSearchStrategy strategy(small_space());
  nas::RunnerConfig config = quiet_config(4);
  config.faults.seed = 11;
  config.faults.fail_with_probability(FaultKind::kLaunchFailure, 0.9,
                                      /*max_fires=*/-1);
  config.resilient.retry.max_attempts = 2;
  config.trial_retries = 3;
  const nas::TrialDatabase db =
      nas::run_multi_trial(strategy, proxy_accuracy, config);
  ASSERT_EQ(db.size(), 4u);
  // With p=0.9 every trial needed session retries or trial retries; the
  // campaign still completed and recorded an outcome for every row.
  for (const nas::Trial& t : db.trials()) {
    EXPECT_TRUE(t.status == nas::TrialStatus::kOk ||
                t.status == nas::TrialStatus::kRetried ||
                t.status == nas::TrialStatus::kFailed);
    if (t.status == nas::TrialStatus::kRetried) {
      EXPECT_GT(t.attempts, 1);
    }
  }
}

TEST(FaultTolerantNas, SameFaultSeedSameDatabase) {
  nas::RunnerConfig config = quiet_config(6);
  config.faults.seed = 21;
  config.faults.fail_with_probability(FaultKind::kLaunchFailure, 0.3);
  config.faults.fail_with_probability(FaultKind::kMemcpyCorruption, 0.2);
  config.resilient.retry.jitter = 0.0;
  auto campaign = [&] {
    nas::GridSearchStrategy strategy(small_space());
    return nas::run_multi_trial(strategy, proxy_accuracy, config);
  };
  const nas::TrialDatabase a = campaign();
  const nas::TrialDatabase b = campaign();
  EXPECT_EQ(a.to_csv(), b.to_csv());

  nas::RunnerConfig other = config;
  other.faults.seed = 22;
  nas::GridSearchStrategy strategy(small_space());
  const nas::TrialDatabase c =
      nas::run_multi_trial(strategy, proxy_accuracy, other);
  EXPECT_EQ(c.size(), a.size());  // row count is fault-independent
}

TEST(FaultTolerantNas, TrialCsvRoundTripsExactly) {
  nas::GridSearchStrategy strategy(small_space());
  const nas::RunnerConfig config = quiet_config(4);
  int calls = 0;
  const nas::TrialDatabase db = nas::run_multi_trial(
      strategy,
      [&](const detect::SppNetConfig& model) {
        if (++calls == 2) throw Error("boom, with (parens) and 'quotes'");
        return proxy_accuracy(model);
      },
      config);
  const std::string csv = db.to_csv();
  const nas::TrialDatabase back = nas::TrialDatabase::from_csv(csv);
  ASSERT_EQ(back.size(), db.size());
  EXPECT_EQ(back.to_csv(), csv);  // byte-for-byte idempotent
  // The failed trial's status, attempts and reason survive; the reason's
  // CSV-significant characters are flattened to ';'.
  EXPECT_EQ(back.trial(1).status, nas::TrialStatus::kFailed);
  EXPECT_EQ(back.trial(1).attempts, db.trial(1).attempts);
  EXPECT_EQ(back.trial(1).failure_reason, "boom; with (parens) and 'quotes'");
  EXPECT_THROW(nas::TrialDatabase::from_csv("garbage"), ConfigError);
}

// The ISSUE acceptance scenario: a campaign with an injected transient
// launch failure AND an evaluator exception mid-campaign still fills every
// row; failed trials are excluded from selection; and resuming an
// interrupted campaign from its checkpoint CSV reproduces the
// uninterrupted database exactly.
TEST(FaultTolerantNas, InterruptedCampaignResumesToIdenticalDatabase) {
  const std::string dir = ::testing::TempDir();
  const std::string full_ckpt = dir + "dcn_faults_full.csv";
  const std::string part_ckpt = dir + "dcn_faults_part.csv";
  std::remove(full_ckpt.c_str());
  std::remove(part_ckpt.c_str());

  nas::RunnerConfig config = quiet_config(8);
  config.faults.seed = 77;
  // >= 1 transient launch failure per measurement attempt 1; absorbed by
  // the session retries (so the trial succeeds after retrying).
  config.faults.fail_at(FaultKind::kLaunchFailure, 0, /*max_fires=*/1);
  config.resilient.retry.max_attempts = 3;
  config.resilient.retry.jitter = 0.0;
  // Evaluator crashes for exactly one architecture mid-campaign,
  // independent of call order (so interrupted and full runs agree).
  const auto evaluator = [](const detect::SppNetConfig& model) {
    if (model.trunk[0].conv.kernel == 5 && model.spp_levels[0] == 4 &&
        model.fc_sizes == std::vector<std::int64_t>{128}) {
      throw Error("evaluator crash for 5/4/128");
    }
    return proxy_accuracy(model);
  };

  // Uninterrupted campaign.
  config.checkpoint_path = full_ckpt;
  nas::GridSearchStrategy full_strategy(small_space());
  const nas::TrialDatabase full =
      nas::run_multi_trial(full_strategy, evaluator, config);
  ASSERT_EQ(full.size(), 8u);
  EXPECT_EQ(full.num_failed(), 1u);
  ASSERT_TRUE(full.best_by_accuracy().has_value());
  EXPECT_TRUE(full.best_by_accuracy()->ok());

  // "Interrupted" campaign: dies after 3 trials, leaving its checkpoint.
  config.checkpoint_path = part_ckpt;
  config.max_trials = 3;
  nas::GridSearchStrategy part_strategy(small_space());
  (void)nas::run_multi_trial(part_strategy, evaluator, config);

  // Resume from the checkpoint with fresh strategy state and same seeds.
  const nas::TrialDatabase checkpoint = nas::load_checkpoint(part_ckpt);
  ASSERT_EQ(checkpoint.size(), 3u);
  config.max_trials = 8;
  nas::GridSearchStrategy resume_strategy(small_space());
  const nas::TrialDatabase resumed =
      nas::run_multi_trial(resume_strategy, evaluator, config, checkpoint);

  EXPECT_EQ(resumed.to_csv(), full.to_csv());
  // The on-disk checkpoints agree too.
  std::ifstream fa(full_ckpt), fb(part_ckpt);
  const std::string file_a((std::istreambuf_iterator<char>(fa)),
                           std::istreambuf_iterator<char>());
  const std::string file_b((std::istreambuf_iterator<char>(fb)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(file_a, file_b);

  // A checkpoint from different seeds is rejected, not silently merged.
  nas::RunnerConfig other = config;
  other.checkpoint_path.clear();
  nas::GridSearchStrategy wrong_strategy(small_space());
  nas::TrialDatabase tampered = checkpoint;
  nas::Trial bogus = checkpoint.trial(0);
  bogus.point.conv1_kernel = bogus.point.conv1_kernel == 3 ? 5 : 3;
  nas::TrialDatabase mismatched;
  mismatched.add(bogus);
  EXPECT_THROW(nas::run_multi_trial(wrong_strategy, evaluator, other,
                                    mismatched),
               ConfigError);
  (void)tampered;
}

TEST(FaultTolerantNas, LoadCheckpointMissingFileIsEmpty) {
  const nas::TrialDatabase db =
      nas::load_checkpoint("/nonexistent/dcn_checkpoint.csv");
  EXPECT_EQ(db.size(), 0u);
}

// --- Profiler integration --------------------------------------------------

TEST(FaultProfiling, ReportAndTraceShowInjectedFaults) {
  profiler::Recorder recorder;
  Device device(simgpu::a5500_spec(), &recorder);
  FaultPlan plan;
  plan.fail_at(FaultKind::kLaunchFailure, 0);
  device.set_fault_plan(plan);
  device.load_library(1);
  device.malloc(1 << 20);
  device.memcpy_h2d(1 << 20);
  EXPECT_THROW(device.run_stage({{test_kernel()}}, 1), DeviceFault);
  device.run_stage({{test_kernel()}}, 1);
  device.synchronize();
  device.record_recovery("retry", 1e-3, "retry 1 after: injected");

  const std::string report = profiler::render_report(recorder);
  EXPECT_NE(report.find("Fault & Recovery Events"), std::string::npos);
  EXPECT_NE(report.find("launch_failure"), std::string::npos);
  EXPECT_NE(report.find("retry"), std::string::npos);

  const std::string trace = profiler::to_chrome_trace(recorder);
  EXPECT_NE(trace.find("\"cat\": \"fault\""), std::string::npos);
  EXPECT_NE(trace.find("launch_failure"), std::string::npos);

  // Fault-free recorders keep the original three-view report.
  profiler::Recorder clean;
  Device clean_device(simgpu::a5500_spec(), &clean);
  clean_device.load_library(1);
  clean_device.run_stage({{test_kernel()}}, 1);
  clean_device.synchronize();
  EXPECT_EQ(profiler::render_report(clean).find("Fault & Recovery"),
            std::string::npos);
}

}  // namespace
}  // namespace dcn
