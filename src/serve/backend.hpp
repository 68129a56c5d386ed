// Serving backends: the unit the fleet dispatches batches to.
//
// PR 4 hard-wired one replica = one simgpu::Device + ios::ResilientSession.
// Pipeline-parallel sharding (src/shard) breaks that identity: a fleet
// entry may now be a whole-model replica on one device OR a pipeline group
// spanning K devices, one model stage each. The Backend interface is the
// seam: the Server's event loop (batching, health, hedging, shedding,
// chaos, crash re-dispatch) speaks only to this surface, so every
// self-healing behaviour composes with both backend shapes unchanged — a
// stage death degrades one pipeline group exactly like a replica death
// degrades one whole-model replica, never the fleet.
//
// Determinism contract: serve_batch() must be a pure function of
// (backend construction state, start, batch, the salts armed immediately
// before the call). The Server arms per-dispatch salts so a batch's
// service time is independent of which fleet entry runs it and of earlier
// batches' faults — the property that keeps completion CSVs byte-identical
// across replica AND pipeline-group counts under light load.
#pragma once

#include <cstdint>
#include <memory>

#include "ios/executor.hpp"
#include "simgpu/faults.hpp"
#include "simgpu/spec.hpp"

namespace dcn::serve {

/// Outcome of one synchronous batch service on the virtual clock.
struct BackendOutcome {
  /// Whether the batch produced a result (retries exhausted => false).
  bool ok = false;
  /// Host-clock instant the service finished (valid even when !ok: the
  /// time the failure was established).
  double end = 0.0;
  /// Instant the backend can accept its next dispatch. A whole-model
  /// replica is busy until `end`; a pipeline group frees its first stage
  /// as soon as the last microbatch clears it, so consecutive batches
  /// overlap into the steady-state wavefront and fill/drain is paid once
  /// per burst, not once per batch.
  double ready = 0.0;
};

/// One dispatchable fleet entry. Single-owner, single-thread, like the
/// Device it wraps. Constructors perform the warm initialization (library
/// load + weight upload on every owned device) and reset clocks to zero,
/// so serving starts from a warm fleet.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Precision this backend serves at (pool membership for shedding).
  virtual simgpu::Precision precision() const = 0;

  /// Simulated devices this backend occupies — the cost-per-request
  /// denominator: a pipeline group burns K device-seconds per busy second.
  virtual int device_count() const = 0;

  /// Arm the per-dispatch transient fault plan. `base` is the server-level
  /// plan; `salt` is the dispatch salt. Implementations derive one
  /// independent seeded stream per owned device from (base.seed, salt).
  /// An empty base plan must detach all injectors.
  virtual void arm_faults(const simgpu::FaultPlan& base,
                          std::uint64_t salt) = 0;

  /// Re-anchor retry-backoff jitter for the coming dispatch (same salt
  /// discipline as arm_faults).
  virtual void reseed_backoff(std::uint64_t salt) = 0;

  /// Serve one batch starting at `start` (>= any prior end). Advances the
  /// owned device clocks; recovery (retries, resets, backoff) is resolved
  /// inside, so the outcome is final when the call returns.
  virtual BackendOutcome serve_batch(double start, std::int64_t batch) = 0;

  /// Full restart at `now` after a (chaos) death: hard-reset every owned
  /// device and re-initialize. Returns the instant the backend is ready to
  /// serve again (restart cost paid on the virtual clock).
  virtual double restart(double now) = 0;

  /// Recovery statistics aggregated over the owned sessions.
  virtual ios::SessionStats stats() const = 0;
};

/// The classic PR-4 replica: the whole model on one private device behind
/// one resilient session. Behaviour (and therefore every committed serving
/// baseline) is byte-identical to the pre-Backend Server::Replica.
class WholeModelBackend : public Backend {
 public:
  /// `graph` must outlive the backend. `recorder` may be null.
  WholeModelBackend(const graph::Graph& graph, ios::Schedule schedule,
                    const simgpu::DeviceSpec& spec,
                    const ios::ResilientOptions& resilient,
                    simgpu::Precision precision,
                    profiler::Recorder* recorder);

  simgpu::Precision precision() const override { return precision_; }
  int device_count() const override { return 1; }
  void arm_faults(const simgpu::FaultPlan& base, std::uint64_t salt) override;
  void reseed_backoff(std::uint64_t salt) override;
  BackendOutcome serve_batch(double start, std::int64_t batch) override;
  double restart(double now) override;
  ios::SessionStats stats() const override { return session_->stats(); }

  /// Weight bytes this replica streams per run because the model exceeds
  /// its device's memory budget (ResilientOptions::allow_weight_paging).
  std::int64_t paged_weight_bytes() const {
    return session_->paged_weight_bytes();
  }

 private:
  simgpu::Precision precision_;
  std::unique_ptr<simgpu::Device> device_;
  std::unique_ptr<ios::ResilientSession> session_;
};

}  // namespace dcn::serve
