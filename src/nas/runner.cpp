#include "nas/runner.hpp"

#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "core/retry.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "ios/scheduler.hpp"

namespace dcn::nas {

namespace {

double measure(const graph::Graph& g, const ios::Schedule& schedule,
               const RunnerConfig& config, std::uint64_t fault_salt) {
  simgpu::Device device(config.device);
  if (!config.faults.empty()) {
    simgpu::FaultPlan plan = config.faults;
    plan.seed = mix_seed(plan.seed, fault_salt);
    device.set_fault_plan(plan);
    ios::SessionStats stats;
    const double latency = ios::measure_latency_resilient(
        g, schedule, device, config.latency_batch, 1, 3, config.resilient,
        &stats, config.precision);
    if (config.verbose &&
        (stats.transient_retries > 0 || stats.reinitializations > 0)) {
      DCN_LOG_INFO << "  recovered from " << stats.transient_retries
                   << " transient fault(s), " << stats.reinitializations
                   << " device reset(s) during measurement";
    }
    return latency;
  }
  return ios::measure_latency(g, schedule, device, config.latency_batch,
                              /*warmup=*/1, /*repeats=*/3, config.precision);
}

void write_checkpoint(const TrialDatabase& database,
                      const std::string& path) {
  // Temp-file + rename so a crash mid-write never corrupts the checkpoint
  // a resume would read.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    DCN_CHECK(os.good()) << "cannot open checkpoint " << tmp;
    os << database.to_csv();
    os.flush();
    DCN_CHECK(os.good()) << "write to " << tmp << " failed";
  }
  DCN_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0)
      << "rename " << tmp << " -> " << path << " failed";
}

// One complete trial evaluation — materialization, profiling, scoring, and
// the bounded retry loop. Everything here is a pure function of
// (point, index, config): no shared mutable state, so the parallel runner
// can execute it on any worker thread. Fault salts come from
// (index, attempt) alone, keeping fault schedules independent of worker
// scheduling.
Trial evaluate_trial(const SearchPoint& point, int index,
                     const Evaluator& evaluator, const RunnerConfig& config) {
  const detect::SppNetConfig model = materialize(point);

  Trial trial;
  trial.index = index;
  trial.point = point;
  const int max_attempts = 1 + std::max(0, config.trial_retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    trial.attempts = attempt;
    try {
      trial.metrics = profile_architecture(model, config, index, attempt);
      trial.metrics.average_precision = evaluator(model);
      trial.status = attempt > 1 ? TrialStatus::kRetried : TrialStatus::kOk;
      trial.failure_reason.clear();
      break;
    } catch (const std::exception& error) {
      trial.status = TrialStatus::kFailed;
      trial.failure_reason = error.what();
      trial.metrics = TrialMetrics{};  // drop partial measurements
      trial.metrics.parameter_count = model.parameter_count();
      if (!is_retryable(error)) break;
      if (config.verbose && attempt < max_attempts) {
        DCN_LOG_WARN << "trial " << index << " attempt " << attempt
                     << " failed (" << error.what() << "), retrying";
      }
    }
  }
  return trial;
}

// A proposed trial in flight: the worker fills `trial`; the main thread
// waits on `future` before committing. unique_ptr keeps the address stable
// while the deque shifts.
struct PendingTrial {
  SearchPoint point;
  int index = 0;
  Trial trial;
  std::future<void> future;
};

}  // namespace

TrialDatabase load_checkpoint(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) return TrialDatabase();
  std::stringstream buffer;
  buffer << is.rdbuf();
  return TrialDatabase::from_csv(buffer.str());
}

TrialMetrics profile_architecture(const detect::SppNetConfig& model,
                                  const RunnerConfig& config,
                                  int trial_index, int attempt) {
  const graph::Graph g =
      graph::build_inference_graph(model, config.input_size);
  // The sequential baseline stays on the naive graph; the optimized path
  // schedules the fused graph, so "speedup" reports IOS + fusion together.
  const graph::Graph fused = graph::optimize_graph(g);

  TrialMetrics metrics;
  metrics.parameter_count = model.parameter_count();

  const ios::Schedule sequential = ios::sequential_schedule(g);
  ios::IosOptions options;
  options.batch = config.latency_batch;
  options.precision = config.precision;
  const ios::Schedule optimized =
      ios::optimize_schedule(fused, config.device, options);

  // One salt per (trial, attempt, schedule): retries see fresh transient
  // faults, exactly as re-running on real hardware would.
  const auto salt = static_cast<std::uint64_t>(trial_index) * 256 +
                    static_cast<std::uint64_t>(attempt);
  metrics.sequential_latency =
      measure(g, sequential, config, 2 * salt);
  metrics.optimized_latency =
      measure(fused, optimized, config, 2 * salt + 1);
  DCN_CHECK(metrics.optimized_latency > 0.0) << "zero latency";
  metrics.throughput =
      static_cast<double>(config.latency_batch) / metrics.optimized_latency;
  return metrics;
}

TrialDatabase run_multi_trial(ExplorationStrategy& strategy,
                              const Evaluator& evaluator,
                              const RunnerConfig& config) {
  return run_multi_trial(strategy, evaluator, config, TrialDatabase());
}

TrialDatabase run_multi_trial(ExplorationStrategy& strategy,
                              const Evaluator& evaluator,
                              const RunnerConfig& config,
                              const TrialDatabase& resume_from) {
  DCN_CHECK(config.max_trials >= 1) << "max_trials";
  TrialDatabase database;

  // Fast-forward: re-propose each completed trial's point (validating the
  // checkpoint matches this strategy/seed) and replay its fitness so the
  // strategy's internal state — and hence every later proposal — matches
  // the uninterrupted campaign.
  for (const Trial& done : resume_from.trials()) {
    if (static_cast<int>(database.size()) >= config.max_trials) break;
    const auto point = strategy.next();
    DCN_CHECK(point.has_value())
        << "resume: strategy exhausted before checkpointed trial "
        << done.index;
    if (point->to_string() != done.point.to_string()) {
      throw ConfigError(
          "resume mismatch at trial " + std::to_string(done.index) +
          ": checkpoint has [" + done.point.to_string() +
          "] but the strategy proposed [" + point->to_string() +
          "] — was the checkpoint produced with different seeds?");
    }
    strategy.report(*point, done.metrics.average_precision);
    database.add(done);
  }

  // Windowed pipeline of depth `jobs`. Proposals are drawn in trial order;
  // workers evaluate them concurrently; commits (report / log / add /
  // checkpoint) drain the window strictly in trial order from this thread.
  // At jobs == 1 the window holds one trial and the next proposal is drawn
  // only after the previous commit — exactly the classic serial loop.
  DCN_CHECK(config.jobs >= 1) << "jobs";
  std::unique_ptr<ThreadPool> pool;
  if (config.jobs > 1) pool = std::make_unique<ThreadPool>(config.jobs);

  std::deque<std::unique_ptr<PendingTrial>> window;
  int next_index = static_cast<int>(database.size());
  bool exhausted = false;
  const auto propose = [&] {
    while (!exhausted && next_index < config.max_trials &&
           static_cast<int>(window.size()) < config.jobs) {
      const auto point = strategy.next();
      if (!point) {
        exhausted = true;  // space exhausted
        break;
      }
      auto pending = std::make_unique<PendingTrial>();
      pending->point = *point;
      pending->index = next_index++;
      if (pool != nullptr) {
        PendingTrial* raw = pending.get();
        pending->future = pool->submit([raw, &evaluator, &config] {
          raw->trial =
              evaluate_trial(raw->point, raw->index, evaluator, config);
        });
      }
      window.push_back(std::move(pending));
    }
  };

  propose();
  while (!window.empty()) {
    const std::unique_ptr<PendingTrial> pending = std::move(window.front());
    window.pop_front();
    if (pool != nullptr) {
      pending->future.get();
    } else {
      pending->trial =
          evaluate_trial(pending->point, pending->index, evaluator, config);
    }
    Trial& trial = pending->trial;
    // Failed trials report fitness 0 so resumed and uninterrupted campaigns
    // feed the strategy identically.
    strategy.report(pending->point, trial.metrics.average_precision);
    if (config.verbose) {
      if (trial.ok()) {
        DCN_LOG_INFO << "trial " << trial.index << " ["
                     << pending->point.to_string() << "]: AP "
                     << trial.metrics.average_precision << ", latency "
                     << trial.metrics.optimized_latency * 1e3 << " ms"
                     << (trial.status == TrialStatus::kRetried
                             ? " (after retry)"
                             : "");
      } else {
        DCN_LOG_WARN << "trial " << trial.index << " ["
                     << pending->point.to_string() << "] FAILED after "
                     << trial.attempts
                     << " attempt(s): " << trial.failure_reason;
      }
    }
    database.add(std::move(trial));
    if (!config.checkpoint_path.empty()) {
      write_checkpoint(database, config.checkpoint_path);
    }
    propose();
  }
  if (!config.checkpoint_path.empty()) {
    write_checkpoint(database, config.checkpoint_path);
  }
  return database;
}

}  // namespace dcn::nas
