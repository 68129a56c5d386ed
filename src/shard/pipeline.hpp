// Microbatch pipeline execution of a partitioned model across K devices.
//
// A PipelineGroup is one serving fleet entry (serve::Backend) spanning K
// simulated devices, one partition stage each, every stage behind its own
// ios::ResilientSession. serve_batch() splits the dispatched batch into
// microbatches and runs the classic fill / steady-state / drain wavefront
// on the virtual clock: stage k starts microbatch m when (a) stage k-1 has
// finished it, (b) its own device is free, and (c) the bounded inter-stage
// queue has room — stage k may run at most `queue_capacity` microbatches
// ahead of stage k+1, the backpressure that keeps a slow stage from
// unboundedly buffering activations.
//
// Consecutive batches overlap into cross-batch steady state: the outcome's
// `ready` instant is stage 0's drain, so the server re-dispatches to the
// group while the later stages are still flushing the previous batch. The
// per-stage device clocks serialize each stage's work, which keeps the
// interleaved wavefront dependency-correct and bounds buffering at each
// stage boundary to one batch of microbatches plus the queue depth. Under
// sustained load the group's throughput is set by its bottleneck stage,
// not by the fill+drain span of an isolated batch.
//
// Contiguous-interval partitioning makes the sequential chain dependency-
// correct: every cross-stage edge flows from a lower stage index to a
// higher one, so "stage k waits for stage k-1" covers all skip edges.
//
// Determinism: serve_batch() is a pure function of (construction state,
// start, batch, the salts armed immediately before the call). arm_faults /
// reseed_backoff additionally mix the stage index into each stage's seed,
// so per-stage fault and jitter streams are mutually independent yet
// reproducible — the pipeline extension of the serving determinism
// contract (completion CSVs stay byte-identical across group counts under
// light load).
//
// Per-stage busy/bubble time is accumulated into StageCounters, and when a
// profiler Recorder is attached every microbatch run is recorded as a
// LaneSpan ("<lane_prefix>/stage<k>" rows in the chrome trace; the gaps in
// a row are that stage's pipeline bubbles).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ios/executor.hpp"
#include "profiler/recorder.hpp"
#include "serve/backend.hpp"
#include "shard/partition.hpp"
#include "simgpu/device.hpp"

namespace dcn::shard {

struct PipelineOptions {
  /// Samples per microbatch (>= 1). Batches smaller than one microbatch
  /// run as a single microbatch.
  std::int64_t microbatch = 8;
  /// Bounded inter-stage queue depth (>= 1): how many microbatches a stage
  /// may run ahead of its successor before blocking.
  int queue_capacity = 2;
  /// Precision every stage serves at (must match the partition's
  /// ios.precision for the schedules to be the ones priced).
  simgpu::Precision precision = simgpu::Precision::kFp32;
  /// Recovery policy for each stage's session.
  ios::ResilientOptions resilient;
  /// Chrome-trace lane prefix for this group's per-stage rows (e.g.
  /// "pipe0"); empty disables lane recording.
  std::string lane_prefix;
};

/// Busy/bubble accounting for one stage, summed over serve_batch calls.
struct StageCounters {
  /// Time the stage's device spent running microbatches.
  double busy_seconds = 0.0;
  /// Idle time inside the stage's active window for each batch (window
  /// open to its last microbatch end): fill skew and backpressure stalls.
  /// Drain time is excluded — under cross-batch steady state the stage is
  /// already serving the next batch then.
  double bubble_seconds = 0.0;
  std::int64_t microbatches = 0;
};

class PipelineGroup : public serve::Backend {
 public:
  /// Takes the partition by value (stage sessions reference the stored
  /// subgraphs). Builds one Device + ResilientSession per stage and warm-
  /// initializes them (clocks reset to zero afterwards, like a whole-model
  /// replica). Throws ConfigError for an empty partition, microbatch < 1,
  /// or queue_capacity < 1.
  PipelineGroup(Partition partition, const simgpu::DeviceSpec& spec,
                PipelineOptions options,
                profiler::Recorder* recorder = nullptr);

  simgpu::Precision precision() const override {
    return options_.precision;
  }
  int device_count() const override {
    return static_cast<int>(stages_.size());
  }
  void arm_faults(const simgpu::FaultPlan& base, std::uint64_t salt) override;
  void reseed_backoff(std::uint64_t salt) override;
  serve::BackendOutcome serve_batch(double start,
                                    std::int64_t batch) override;
  double restart(double now) override;
  ios::SessionStats stats() const override;

  const Partition& partition() const { return partition_; }
  const std::vector<StageCounters>& stage_counters() const {
    return counters_;
  }
  /// Aggregate bubble share across stages: bubbles / (busy + bubbles).
  /// 0 when nothing has been served.
  double bubble_fraction() const;

 private:
  struct Stage {
    std::unique_ptr<simgpu::Device> device;
    std::unique_ptr<ios::ResilientSession> session;
  };

  Partition partition_;
  PipelineOptions options_;
  profiler::Recorder* recorder_;
  std::vector<Stage> stages_;
  std::vector<StageCounters> counters_;
};

}  // namespace dcn::shard
