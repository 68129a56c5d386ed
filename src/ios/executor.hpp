// Schedule execution on the simulated device and latency measurement.
//
// InferenceSession mirrors a deployed inference server: initialize() loads
// the kernel library and uploads weights once; run(batch) performs one
// inference — H2D input copy, the scheduled stages, device synchronize,
// D2H output copy — and reports the end-to-end virtual latency. The
// measurement harness (warm-up + repeats) mirrors how IOS and the paper
// time schedules; the simulator is deterministic so repeats agree exactly,
// which the tests assert.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/retry.hpp"
#include "core/rng.hpp"
#include "ios/schedule.hpp"
#include "simgpu/device.hpp"

namespace dcn::ios {

struct RunResult {
  double latency_seconds = 0.0;
  /// Latency divided by batch — the paper's "inference efficiency" (§6.4).
  double per_image_seconds = 0.0;
};

class InferenceSession {
 public:
  /// `graph` and `device` must outlive the session. `precision` selects the
  /// kernel variants the session launches (int8 sessions read quarter-width
  /// weights/activations and use the device's int8 dense-math path); host
  /// I/O stays float — quantize/dequantize happen on-device.
  ///
  /// `allow_weight_paging` governs what happens when the model's weights do
  /// not fit the device alongside the activation workspace: by default
  /// initialize() throws OutOfMemoryError (the honest single-device story);
  /// with paging enabled the session keeps what fits resident and streams
  /// the overflow over PCIe on *every* run — the cost a whole-model replica
  /// pays for serving a model bigger than its memory budget, and the
  /// baseline the pipeline-parallel sharding bench compares against.
  InferenceSession(const graph::Graph& graph, Schedule schedule,
                   simgpu::Device& device,
                   simgpu::Precision precision = simgpu::Precision::kFp32,
                   bool allow_weight_paging = false);

  /// Load library, allocate weights and activation workspace, create the
  /// streams the widest stage needs. Idempotent.
  void initialize();

  /// One inference at `batch`. Requires initialize(). Throws ConfigError
  /// for batch < 1 (a degenerate stage must never be priced silently).
  RunResult run(std::int64_t batch);

  /// Forget initialization state (after a device hard_reset dropped the
  /// library and weights); the next initialize() re-uploads everything.
  void invalidate() { initialized_ = false; }
  bool initialized() const { return initialized_; }

  const Schedule& schedule() const { return schedule_; }
  simgpu::Precision precision() const { return precision_; }

  /// Weight bytes streamed from the host on every run because they did not
  /// fit on-device (0 when the model is fully resident; only ever non-zero
  /// after initialize() with allow_weight_paging).
  std::int64_t paged_weight_bytes() const { return paged_weight_bytes_; }

 private:
  const graph::Graph& graph_;
  Schedule schedule_;
  simgpu::Device& device_;
  simgpu::Precision precision_ = simgpu::Precision::kFp32;
  bool allow_weight_paging_ = false;
  std::vector<simgpu::KernelDesc> kernel_table_;
  std::int64_t input_bytes_per_sample_ = 0;
  std::int64_t output_bytes_per_sample_ = 0;
  std::int64_t paged_weight_bytes_ = 0;
  bool initialized_ = false;
};

/// Warm-up then measure: median of `repeats` runs (deterministic on the
/// simulator, but the harness keeps the standard shape). Resets the device
/// clocks first so initialization cost is excluded, as in the paper's
/// Table 2 / Figure 6 timing. Throws ConfigError for repeats < 1,
/// warmup < 0, or batch < 1.
double measure_latency(const graph::Graph& graph, const Schedule& schedule,
                       simgpu::Device& device, std::int64_t batch,
                       int warmup = 1, int repeats = 3,
                       simgpu::Precision precision = simgpu::Precision::kFp32);

// --- Resilient execution ---------------------------------------------------

/// Seed of a resilient session's backoff jitter stream (drawn only when
/// retry.jitter > 0). The serving backends reseed it per dispatch by mixing
/// the dispatch salt into this seed.
inline constexpr std::uint64_t kBackoffSeed = 0x5eed;

struct ResilientOptions {
  /// Per-run retry budget for transient faults (launch failures, copy
  /// corruption, spurious allocation failures).
  RetryPolicy retry;
  /// Watchdog for synchronize() waits, virtual seconds (0 disables). A
  /// hung device trips it, gets hard-reset, and the run is retried.
  double sync_timeout = 0.0;
  /// Stream non-resident weights over PCIe per run instead of failing
  /// initialization when the model exceeds the device's memory budget (see
  /// InferenceSession).
  bool allow_weight_paging = false;
};

/// Degradation statistics a resilient session accumulates across runs.
struct SessionStats {
  std::int64_t runs = 0;       // run()/try_run() calls
  std::int64_t completed = 0;  // runs that produced a result
  std::int64_t degraded = 0;   // try_run() failures swallowed
  int transient_retries = 0;   // faulted attempts that were retried
  int reinitializations = 0;   // device hard-resets + state re-uploads
  double backoff_seconds = 0.0;
  std::string last_error;
};

/// InferenceSession wrapper with failure semantics: transient device faults
/// are retried with exponential backoff on the virtual clock; device-loss
/// faults (hangs tripping the sync timeout) hard-reset the device and
/// re-upload state before retrying. Every retry and re-init is recorded as
/// a profiler trace event. run() throws only once the retry budget is
/// exhausted or a fatal fault occurs; try_run() degrades gracefully to
/// nullopt and counts the loss in stats().
class ResilientSession {
 public:
  ResilientSession(const graph::Graph& graph, Schedule schedule,
                   simgpu::Device& device, ResilientOptions options = {},
                   simgpu::Precision precision = simgpu::Precision::kFp32);

  /// Resilient initialize: any fault during setup resets the device and
  /// starts over (partial initialization is never reused).
  void initialize();

  RunResult run(std::int64_t batch);
  std::optional<RunResult> try_run(std::int64_t batch);

  /// Re-anchor the backoff jitter stream (no-op for jitter = 0 policies).
  /// The serving layer reseeds per dispatched batch so recovery timing is a
  /// pure function of the batch index, independent of replica history.
  void reseed_backoff(std::uint64_t seed) { backoff_.reseed(seed); }

  /// Full replica restart: hard-reset the device (dropping the library,
  /// all memory, and queued work), then re-initialize from scratch. The
  /// serving layer respawns a crashed replica through this; counts one
  /// reinitialization in stats().
  void hard_restart();

  const SessionStats& stats() const { return stats_; }
  const ResilientOptions& options() const { return options_; }
  simgpu::Precision precision() const { return session_.precision(); }
  std::int64_t paged_weight_bytes() const {
    return session_.paged_weight_bytes();
  }

 private:
  void recover(const std::exception& error, int retry);

  InferenceSession session_;
  simgpu::Device& device_;
  ResilientOptions options_;
  SeededBackoff backoff_;
  SessionStats stats_;
};

/// measure_latency through a ResilientSession: transient faults retried,
/// device loss recovered, failed repeats dropped (graceful degradation).
/// Returns the median of the completed repeats; throws when every repeat
/// failed. `stats_out`, when non-null, receives the session statistics.
double measure_latency_resilient(
    const graph::Graph& graph, const Schedule& schedule,
    simgpu::Device& device, std::int64_t batch, int warmup, int repeats,
    const ResilientOptions& options, SessionStats* stats_out = nullptr,
    simgpu::Precision precision = simgpu::Precision::kFp32);

}  // namespace dcn::ios
