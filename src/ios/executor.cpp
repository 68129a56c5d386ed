#include "ios/executor.hpp"

#include <algorithm>
#include <vector>

#include "core/error.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::ios {

InferenceSession::InferenceSession(const graph::Graph& graph,
                                   Schedule schedule, simgpu::Device& device,
                                   simgpu::Precision precision,
                                   bool allow_weight_paging)
    : graph_(graph),
      schedule_(std::move(schedule)),
      device_(device),
      precision_(precision),
      allow_weight_paging_(allow_weight_paging) {
  validate_schedule(graph_, schedule_);
  kernel_table_ = simgpu::make_kernel_table(graph_, precision_);
  for (const graph::OpNode& node : graph_.nodes()) {
    if (node.kind == graph::OpKind::kInput) {
      input_bytes_per_sample_ += node.output.numel() * 4;
    } else if (node.kind == graph::OpKind::kOutput) {
      output_bytes_per_sample_ += node.output.numel() * 4;
    }
  }
  DCN_CHECK(input_bytes_per_sample_ > 0) << "graph has no input";
}

void InferenceSession::initialize() {
  if (initialized_) return;
  device_.load_library(static_cast<int>(schedule_.num_kernels()));
  paged_weight_bytes_ = 0;
  auto weight_bytes =
      static_cast<std::int64_t>(simgpu::total_weight_bytes(graph_));
  // Activation workspace: two ping-pong buffers of the largest activation.
  std::int64_t max_activation = 0;
  for (const graph::OpNode& node : graph_.nodes()) {
    max_activation = std::max(max_activation, node.output.numel() * 4);
  }
  const std::int64_t workspace_bytes = 2 * max_activation * 64;  // batch <= 64
  if (allow_weight_paging_) {
    // Keep as much of the model resident as fits next to the workspace;
    // the overflow is re-streamed over PCIe on every run (see run()).
    const std::int64_t capacity =
        device_.spec().dram_bytes - device_.memory().live_bytes();
    const std::int64_t resident_budget =
        std::max<std::int64_t>(0, capacity - workspace_bytes);
    if (weight_bytes > resident_budget) {
      paged_weight_bytes_ = weight_bytes - resident_budget;
      weight_bytes = resident_budget;
    }
  }
  // Resident weights are uploaded once and stay on-device.
  if (weight_bytes > 0) {
    device_.malloc(weight_bytes);
    device_.memcpy_h2d(weight_bytes);
  }
  device_.malloc(workspace_bytes);
  for (std::size_t s = 0; s < schedule_.max_concurrency(); ++s) {
    device_.create_stream();
  }
  initialized_ = true;
}

RunResult InferenceSession::run(std::int64_t batch) {
  DCN_CHECK(initialized_) << "run before initialize";
  if (batch < 1) {
    throw ConfigError("InferenceSession::run: batch must be >= 1, got " +
                      std::to_string(batch));
  }
  const double start = device_.host_time();

  // Non-resident weights stream in ahead of the input on every inference —
  // the per-run PCIe tax a device too small for the model keeps paying.
  if (paged_weight_bytes_ > 0) device_.memcpy_h2d(paged_weight_bytes_);
  device_.memcpy_h2d(input_bytes_per_sample_ * batch);
  for (const Stage& stage : schedule_.stages) {
    std::vector<std::vector<simgpu::KernelDesc>> groups;
    groups.reserve(stage.groups.size());
    for (const Group& group : stage.groups) {
      std::vector<simgpu::KernelDesc> ks;
      ks.reserve(group.ops.size());
      for (graph::OpId id : group.ops) {
        ks.push_back(kernel_table_[static_cast<std::size_t>(id)]);
      }
      groups.push_back(std::move(ks));
    }
    device_.run_stage(groups, batch);
  }
  device_.synchronize();
  device_.memcpy_d2h(output_bytes_per_sample_ * batch);

  RunResult result;
  result.latency_seconds = device_.host_time() - start;
  result.per_image_seconds =
      result.latency_seconds / static_cast<double>(batch);
  return result;
}

namespace {

void validate_measure_args(std::int64_t batch, int warmup, int repeats) {
  if (repeats < 1) {
    throw ConfigError("measure_latency: repeats must be >= 1, got " +
                      std::to_string(repeats));
  }
  if (warmup < 0) {
    throw ConfigError("measure_latency: warmup must be >= 0, got " +
                      std::to_string(warmup));
  }
  if (batch < 1) {
    throw ConfigError("measure_latency: batch must be >= 1, got " +
                      std::to_string(batch));
  }
}

double median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

double measure_latency(const graph::Graph& graph, const Schedule& schedule,
                       simgpu::Device& device, std::int64_t batch, int warmup,
                       int repeats, simgpu::Precision precision) {
  validate_measure_args(batch, warmup, repeats);
  InferenceSession session(graph, schedule, device, precision);
  session.initialize();
  for (int i = 0; i < warmup; ++i) (void)session.run(batch);
  device.reset_clocks();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    samples.push_back(session.run(batch).latency_seconds);
  }
  return median(samples);
}

ResilientSession::ResilientSession(const graph::Graph& graph,
                                   Schedule schedule, simgpu::Device& device,
                                   ResilientOptions options,
                                   simgpu::Precision precision)
    : session_(graph, std::move(schedule), device, precision,
               options.allow_weight_paging),
      device_(device),
      options_(options),
      backoff_(options.retry, kBackoffSeed) {
  device_.set_sync_timeout(options_.sync_timeout);
}

void ResilientSession::recover(const std::exception& error, int retry) {
  // Device loss: drop the wedged queue and all device state, then rebuild.
  // Any fault during (re-)initialization also lands here with a full reset,
  // so a partially-initialized session is never reused.
  if (requires_reset(error) || !session_.initialized()) {
    device_.hard_reset();
    session_.invalidate();
    session_.initialize();
    ++stats_.reinitializations;
    device_.record_recovery("reinitialize", 0.0,
                            std::string("device reset after: ") +
                                error.what());
  }
  const double delay = backoff_.delay(retry);
  device_.advance_host(delay);
  stats_.backoff_seconds += delay;
  device_.record_recovery("retry", delay,
                          "retry " + std::to_string(retry) + " after: " +
                              error.what());
}

void ResilientSession::hard_restart() {
  device_.hard_reset();
  session_.invalidate();
  ++stats_.reinitializations;
  device_.record_recovery("respawn", 0.0, "replica hard restart");
  initialize();
}

void ResilientSession::initialize() {
  RetryStats retry_stats;
  with_retries(
      options_.retry, retry_stats, [&] { session_.initialize(); },
      [&](const std::exception& error, int retry) {
        // Roll back partial setup (leaked weight buffers, half-loaded
        // library) before trying again.
        device_.hard_reset();
        session_.invalidate();
        ++stats_.reinitializations;
        const double delay = backoff_.delay(retry);
        device_.advance_host(delay);
        stats_.backoff_seconds += delay;
        device_.record_recovery("retry", delay,
                                "initialize retry " + std::to_string(retry) +
                                    " after: " + error.what());
      });
  stats_.transient_retries += retry_stats.retries;
}

RunResult ResilientSession::run(std::int64_t batch) {
  ++stats_.runs;
  RetryStats retry_stats;
  try {
    const RunResult result = with_retries(
        options_.retry, retry_stats, [&] { return session_.run(batch); },
        [&](const std::exception& error, int retry) {
          recover(error, retry);
        });
    stats_.transient_retries += retry_stats.retries;
    ++stats_.completed;
    return result;
  } catch (const std::exception& error) {
    stats_.transient_retries += retry_stats.retries;
    stats_.last_error = error.what();
    throw;
  }
}

std::optional<RunResult> ResilientSession::try_run(std::int64_t batch) {
  try {
    return run(batch);
  } catch (const Error&) {
    ++stats_.degraded;
    return std::nullopt;
  }
}

double measure_latency_resilient(const graph::Graph& graph,
                                 const Schedule& schedule,
                                 simgpu::Device& device, std::int64_t batch,
                                 int warmup, int repeats,
                                 const ResilientOptions& options,
                                 SessionStats* stats_out,
                                 simgpu::Precision precision) {
  validate_measure_args(batch, warmup, repeats);
  ResilientSession session(graph, schedule, device, options, precision);
  session.initialize();
  for (int i = 0; i < warmup; ++i) (void)session.try_run(batch);
  device.reset_clocks();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    if (const auto result = session.try_run(batch)) {
      samples.push_back(result->latency_seconds);
    }
  }
  if (stats_out != nullptr) *stats_out = session.stats();
  if (samples.empty()) {
    throw DeviceFault("measure_latency_resilient: all " +
                          std::to_string(repeats) + " repeats failed (last: " +
                          session.stats().last_error + ")",
                      /*retryable=*/true);
  }
  return median(samples);
}

}  // namespace dcn::ios
