// Tests for the parallel NAS runner's determinism contract and the core
// threading primitives underneath it (ThreadPool, atomic thread-count
// knob). The contract: for report-independent strategies, the trial
// database CSV is byte-identical at any --jobs, including under fault
// injection and across checkpoint/resume.
//
// These tests run under ThreadSanitizer in CI (the `tsan` preset), so they
// deliberately exercise std::thread concurrency and stay away from OpenMP
// parallel regions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "nas/runner.hpp"
#include "nas/strategy.hpp"
#include "simgpu/faults.hpp"

namespace dcn {
namespace {

nas::SearchSpace small_space() {
  nas::SearchSpace space;
  space.conv1_kernels = {3, 5};
  space.spp_first_levels = {2, 4};
  space.fc_widths = {64, 128};
  space.num_fc_layers = 1;
  return space;
}

nas::RunnerConfig quiet_config(int max_trials, int jobs) {
  nas::RunnerConfig config;
  config.max_trials = max_trials;
  config.input_size = 32;
  config.verbose = false;
  config.jobs = jobs;
  return config;
}

// Pure function of the model: safe to call from any worker thread.
double proxy_accuracy(const detect::SppNetConfig& model) {
  return 0.9 + 1e-9 * static_cast<double>(model.parameter_count());
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 100; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  auto future = pool.submit([] {});
  future.get();
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto bad = pool.submit([] { throw Error("task failed"); });
  auto good = pool.submit([] {});
  EXPECT_THROW(bad.get(), Error);
  good.get();  // one task's failure does not poison the pool
  auto after = pool.submit([] {});
  after.get();
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    // Futures intentionally dropped: destruction must still run the queue.
  }
  EXPECT_EQ(ran.load(), 16);
}

// --- Atomic thread-count knob ----------------------------------------------

TEST(ParallelCore, ConcurrentSetAndGetNumThreadsIsClean) {
  // Hammer the knob from several threads at once; under TSan this fails if
  // g_num_threads were still a plain int.
  std::vector<std::thread> threads;
  std::atomic<int> observed_min{1 << 30};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &observed_min] {
      for (int i = 0; i < 1000; ++i) {
        set_num_threads(1 + (t + i) % 4);
        const int n = hardware_threads();
        int current = observed_min.load();
        while (n < current &&
               !observed_min.compare_exchange_weak(current, n)) {
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GE(observed_min.load(), 1);
  set_num_threads(0);  // restore the hardware default for other tests
}

// --- Compute tasks -----------------------------------------------------------

TEST(ComputeTasks, ManyTasksRunOnceEachOnAtMostComputeThreads) {
  set_num_threads(3);
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  std::vector<std::thread::id> ran_on(kTasks);
  std::atomic<int> flagged{0};
  run_compute_tasks(kTasks, [&](int t) {
    runs[static_cast<std::size_t>(t)].fetch_add(1);
    ran_on[static_cast<std::size_t>(t)] = std::this_thread::get_id();
    if (in_compute_worker()) flagged.fetch_add(1);
  });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  std::vector<std::thread::id> distinct = ran_on;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_LE(distinct.size(), 3u);
  // The caller's tasks are flagged too: their nested launches run inline.
  EXPECT_EQ(flagged.load(), kTasks);
  EXPECT_FALSE(in_compute_worker());
  set_num_threads(0);
}

TEST(ComputeTasks, NestedLaunchesRunInlineOnEveryThread) {
  set_num_threads(4);
  std::atomic<int> nested_elsewhere{0};
  std::atomic<int> nested_runs{0};
  run_compute_tasks(4, [&](int) {
    const std::thread::id outer = std::this_thread::get_id();
    run_compute_tasks(8, [&](int) {
      nested_runs.fetch_add(1);
      if (std::this_thread::get_id() != outer) nested_elsewhere.fetch_add(1);
    });
  });
  EXPECT_EQ(nested_runs.load(), 32);
  EXPECT_EQ(nested_elsewhere.load(), 0);
  set_num_threads(0);
}

TEST(ComputeTasks, EveryTaskRunsAndTheLowestFailingTaskIsRethrown) {
  set_num_threads(4);
  std::atomic<int> ran{0};
  try {
    run_compute_tasks(16, [&](int t) {
      ran.fetch_add(1);
      if (t == 11 || t == 5) throw Error("task " + std::to_string(t));
    });
    ADD_FAILURE() << "run_compute_tasks swallowed the task exceptions";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("task 5"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ran.load(), 16);
  set_num_threads(0);
}

// --- Parallel runner determinism -------------------------------------------

TEST(ParallelRunner, GridSearchCsvIsByteIdenticalToSerial) {
  nas::GridSearchStrategy serial_strategy(small_space());
  const nas::TrialDatabase serial = nas::run_multi_trial(
      serial_strategy, proxy_accuracy, quiet_config(8, 1));

  nas::GridSearchStrategy parallel_strategy(small_space());
  const nas::TrialDatabase parallel = nas::run_multi_trial(
      parallel_strategy, proxy_accuracy, quiet_config(8, 4));

  ASSERT_EQ(parallel.size(), 8u);
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

TEST(ParallelRunner, RandomSearchCsvIsByteIdenticalToSerial) {
  nas::RandomSearchStrategy serial_strategy(small_space(), 17);
  const nas::TrialDatabase serial = nas::run_multi_trial(
      serial_strategy, proxy_accuracy, quiet_config(6, 1));

  nas::RandomSearchStrategy parallel_strategy(small_space(), 17);
  const nas::TrialDatabase parallel = nas::run_multi_trial(
      parallel_strategy, proxy_accuracy, quiet_config(6, 3));

  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

TEST(ParallelRunner, ByteIdenticalUnderFaultInjection) {
  // Fault salts derive from (trial index, attempt), not worker identity, so
  // the injected fault schedules — and hence retries, statuses, and
  // latencies — match between serial and parallel runs.
  const auto make_config = [](int jobs) {
    nas::RunnerConfig config = quiet_config(8, jobs);
    config.faults = simgpu::FaultPlan::parse("launch:p=0.3", 99);
    config.resilient.retry.max_attempts = 2;
    config.resilient.retry.jitter = 0.0;
    config.trial_retries = 2;
    return config;
  };
  nas::GridSearchStrategy serial_strategy(small_space());
  const nas::TrialDatabase serial = nas::run_multi_trial(
      serial_strategy, proxy_accuracy, make_config(1));

  nas::GridSearchStrategy parallel_strategy(small_space());
  const nas::TrialDatabase parallel = nas::run_multi_trial(
      parallel_strategy, proxy_accuracy, make_config(4));

  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
}

TEST(ParallelRunner, CheckpointResumeMatchesUninterruptedParallelRun) {
  const std::string ckpt =
      ::testing::TempDir() + "dcn_parallel_runner_ckpt.csv";
  std::remove(ckpt.c_str());

  nas::GridSearchStrategy full_strategy(small_space());
  const nas::TrialDatabase full = nas::run_multi_trial(
      full_strategy, proxy_accuracy, quiet_config(8, 4));

  // "Interrupted" parallel campaign: stops after 5 trials.
  nas::RunnerConfig partial_config = quiet_config(5, 4);
  partial_config.checkpoint_path = ckpt;
  nas::GridSearchStrategy partial_strategy(small_space());
  nas::run_multi_trial(partial_strategy, proxy_accuracy, partial_config);

  // Resume with fresh strategy state; commits happened in trial order, so
  // the checkpoint holds exactly the first 5 grid points.
  const nas::TrialDatabase checkpoint = nas::load_checkpoint(ckpt);
  ASSERT_EQ(checkpoint.size(), 5u);
  nas::GridSearchStrategy resume_strategy(small_space());
  const nas::TrialDatabase resumed = nas::run_multi_trial(
      resume_strategy, proxy_accuracy, quiet_config(8, 4), checkpoint);

  EXPECT_EQ(full.to_csv(), resumed.to_csv());
  std::remove(ckpt.c_str());
}

TEST(ParallelRunner, RejectsNonPositiveJobs) {
  nas::GridSearchStrategy strategy(small_space());
  EXPECT_THROW(nas::run_multi_trial(strategy, proxy_accuracy,
                                    quiet_config(2, 0)),
               Error);
}

TEST(ParallelRunner, StopsAtSpaceExhaustionWithWideWindow) {
  // jobs greater than the remaining space must not deadlock or over-run.
  nas::GridSearchStrategy strategy(small_space());
  const nas::TrialDatabase db = nas::run_multi_trial(
      strategy, proxy_accuracy, quiet_config(100, 6));
  EXPECT_EQ(db.size(), 8u);
}

}  // namespace
}  // namespace dcn
