#include "shard/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dcn::shard {

PipelineGroup::PipelineGroup(Partition partition,
                             const simgpu::DeviceSpec& spec,
                             PipelineOptions options,
                             profiler::Recorder* recorder)
    : partition_(std::move(partition)),
      options_(std::move(options)),
      recorder_(recorder) {
  if (partition_.stages.empty()) {
    throw ConfigError("PipelineGroup: partition has no stages");
  }
  if (options_.microbatch < 1) {
    throw ConfigError("PipelineGroup: microbatch must be >= 1, got " +
                      std::to_string(options_.microbatch));
  }
  if (options_.queue_capacity < 1) {
    throw ConfigError("PipelineGroup: queue_capacity must be >= 1, got " +
                      std::to_string(options_.queue_capacity));
  }
  counters_.resize(partition_.stages.size());
  stages_.reserve(partition_.stages.size());
  for (const StagePlan& plan : partition_.stages) {
    Stage stage;
    stage.device = std::make_unique<simgpu::Device>(spec, recorder_);
    stage.session = std::make_unique<ios::ResilientSession>(
        plan.subgraph, plan.schedule, *stage.device, options_.resilient,
        options_.precision);
    stage.session->initialize();
    // Warm start, exactly like a whole-model replica: the library load and
    // stage-weight upload happen before the serving timeline.
    stage.device->reset_clocks();
    stages_.push_back(std::move(stage));
  }
}

void PipelineGroup::arm_faults(const simgpu::FaultPlan& base,
                               std::uint64_t salt) {
  if (base.empty()) return;
  const std::uint64_t dispatch_seed = mix_seed(base.seed, salt);
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    simgpu::FaultPlan plan = base;
    // One independent stream per stage device, all derived from the same
    // per-dispatch seed — stage k's faults never depend on stage k-1's.
    plan.seed = mix_seed(dispatch_seed, static_cast<std::uint64_t>(k));
    stages_[k].device->set_fault_plan(plan);
  }
}

void PipelineGroup::reseed_backoff(std::uint64_t salt) {
  const std::uint64_t dispatch_seed = mix_seed(ios::kBackoffSeed, salt);
  for (std::size_t k = 0; k < stages_.size(); ++k) {
    stages_[k].session->reseed_backoff(
        mix_seed(dispatch_seed, static_cast<std::uint64_t>(k)));
  }
}

serve::BackendOutcome PipelineGroup::serve_batch(double start,
                                                 std::int64_t batch) {
  if (batch < 1) {
    throw ConfigError("PipelineGroup::serve_batch: batch must be >= 1, got " +
                      std::to_string(batch));
  }
  const std::size_t num_stages = stages_.size();
  const std::int64_t mb = options_.microbatch;
  const std::size_t num_micro =
      static_cast<std::size_t>((batch + mb - 1) / mb);
  const std::size_t queue = static_cast<std::size_t>(options_.queue_capacity);

  // Wavefront schedule, microbatch-major: when stage k prices microbatch m,
  // stage k-1's end for m and stage k+1's start for m-queue are already
  // known, so every constraint reads completed state.
  std::vector<std::vector<double>> mb_start(
      num_stages, std::vector<double>(num_micro, 0.0));
  std::vector<std::vector<double>> mb_end(
      num_stages, std::vector<double>(num_micro, 0.0));
  std::vector<double> batch_busy(num_stages, 0.0);
  // Stage clocks may still be draining the previous batch (cross-batch
  // steady state): each stage's bubble window opens at the later of the
  // dispatch instant and its own clock, so overlap never counts as idle.
  std::vector<double> window_open(num_stages, start);
  for (std::size_t k = 0; k < num_stages; ++k) {
    window_open[k] = std::max(start, stages_[k].device->host_time());
  }

  serve::BackendOutcome out;
  out.ok = true;
  out.end = start;
  for (std::size_t m = 0; m < num_micro && out.ok; ++m) {
    const std::int64_t size =
        std::min<std::int64_t>(mb, batch - static_cast<std::int64_t>(m) * mb);
    for (std::size_t k = 0; k < num_stages; ++k) {
      Stage& stage = stages_[k];
      double s = k == 0 ? start : mb_end[k - 1][m];
      // Own device still draining the previous microbatch.
      s = std::max(s, stage.device->host_time());
      // Bounded inter-stage queue: at most `queue` microbatches may sit
      // between this stage and its successor, so microbatch m waits until
      // the successor has started m - queue.
      if (k + 1 < num_stages && m >= queue) {
        s = std::max(s, mb_start[k + 1][m - queue]);
      }
      stage.device->advance_host(s - stage.device->host_time());
      const auto result = stage.session->try_run(size);
      const double e = stage.device->host_time();
      mb_start[k][m] = s;
      mb_end[k][m] = e;
      batch_busy[k] += e - s;
      counters_[k].busy_seconds += e - s;
      ++counters_[k].microbatches;
      out.end = std::max(out.end, e);
      if (recorder_ != nullptr && !options_.lane_prefix.empty()) {
        recorder_->record_lane_span(
            options_.lane_prefix + "/stage" + std::to_string(k),
            "mb" + std::to_string(m), s, e - s,
            "microbatch " + std::to_string(m) + " (" + std::to_string(size) +
                " sample(s))");
      }
      if (!result.has_value()) {
        // A stage exhausted its retry budget: the batch is lost as a unit
        // (partial pipelines produce nothing). Remaining microbatches are
        // not scheduled; the failure instant is the outcome's end.
        out.ok = false;
        break;
      }
    }
  }
  // Bubble accounting per stage, over the stage's own active window for
  // this batch (window open -> its last microbatch end): fill skew and
  // backpressure stalls count as bubble; drain time after a stage's last
  // microbatch does not, because under cross-batch steady state the stage
  // is free to start the next batch then.
  for (std::size_t k = 0; k < num_stages; ++k) {
    const double window =
        std::max(0.0, stages_[k].device->host_time() - window_open[k]);
    counters_[k].bubble_seconds += std::max(0.0, window - batch_busy[k]);
  }
  // The group can accept its next dispatch once stage 0 drains: the next
  // batch's wavefront interleaves with this one's drain on the per-stage
  // device clocks, which is what amortizes fill/drain across a burst
  // (each stage boundary buffers at most one batch of microbatches plus
  // the bounded queue).
  out.ready = stages_.front().device->host_time();
  return out;
}

double PipelineGroup::restart(double now) {
  // All stages restart concurrently (each on its own device timeline); the
  // group rejoins when the slowest stage finishes re-initializing.
  double ready = now;
  for (Stage& stage : stages_) {
    stage.device->reset_clocks();
    stage.device->advance_host(now);
    stage.device->set_fault_plan(simgpu::FaultPlan{});
    stage.session->hard_restart();
    ready = std::max(ready, stage.device->host_time());
  }
  return ready;
}

ios::SessionStats PipelineGroup::stats() const {
  ios::SessionStats total;
  for (const Stage& stage : stages_) {
    const ios::SessionStats& s = stage.session->stats();
    total.runs += s.runs;
    total.completed += s.completed;
    total.degraded += s.degraded;
    total.transient_retries += s.transient_retries;
    total.reinitializations += s.reinitializations;
    total.backoff_seconds += s.backoff_seconds;
    if (!s.last_error.empty()) total.last_error = s.last_error;
  }
  return total;
}

double PipelineGroup::bubble_fraction() const {
  double busy = 0.0;
  double bubble = 0.0;
  for (const StageCounters& c : counters_) {
    busy += c.busy_seconds;
    bubble += c.bubble_seconds;
  }
  const double total = busy + bubble;
  return total <= 0.0 ? 0.0 : bubble / total;
}

}  // namespace dcn::shard
