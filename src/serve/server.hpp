// SLO-aware, self-healing dynamic-batching inference fleet on the virtual
// clock.
//
// A discrete-event simulation of a deployed serving stack: an open-loop
// arrival trace feeds a bounded admission queue; the dynamic batcher cuts
// batches (size- or timeout-triggered, dropping already-expired requests at
// formation); batches dispatch to the healthiest free replica, each replica
// owning its own simgpu::Device + ios::ResilientSession so injected faults
// are absorbed by retry/device-reset recovery without losing accepted
// requests.
//
// On top of the PR-4 serving core sits the fleet self-healing layer
// (DESIGN.md "Fleet failure model & self-healing"):
//   - chaos faults: per-replica FaultPlans carrying replica deaths and
//     straggler windows (materialized from a seeded ChaosSchedule);
//   - health: a HealthMonitor tracks healthy/suspect/dead per replica with
//     latency-EWMA straggler detection, per-replica circuit breakers, and a
//     bounded-restart respawn policy; dispatch is health-weighted instead
//     of round-robin;
//   - crash re-dispatch: a batch in flight when its replica dies is
//     re-dispatched to a survivor after a failure-detection delay, so
//     crashes never lose accepted requests while any replica survives;
//   - hedged requests: slow batches race a duplicate on a second free
//     replica, first completion wins, duplicates suppressed
//     deterministically;
//   - load shedding: under queue pressure admitted traffic degrades to the
//     INT8 replica pool before anything is rejected, recorded per request
//     in the served_precision CSV column.
//
// Every request ends in exactly one CompletionRecord (completed, rejected
// at admission, deadline-expired, or failed), and the report aggregates
// tail latency, throughput, SLO attainment, goodput, and the fleet's
// availability story (deaths, respawns, recovery time).
//
// Determinism contract (DESIGN.md "Serving model"): the whole simulation is
// a pure function of (graph, schedule, config, trace). Per-dispatch salts
// reseed the fault injector and backoff jitter from the batch index (plus
// the attempt number for crash re-dispatches and a separate channel for
// hedges), so a batch's service time — recovery included — does not depend
// on which replica runs it or on earlier batches' faults. The completion
// log therefore reproduces byte-for-byte from a fixed seed, and stays
// byte-identical across replica counts whenever no batch has to wait for a
// busy replica (the light-load regime the acceptance tests pin).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ios/executor.hpp"
#include "profiler/recorder.hpp"
#include "serve/backend.hpp"
#include "serve/batcher.hpp"
#include "serve/chaos.hpp"
#include "serve/health.hpp"
#include "serve/hedge.hpp"
#include "serve/histogram.hpp"
#include "serve/shed.hpp"
#include "serve/traffic.hpp"
#include "simgpu/faults.hpp"
#include "simgpu/spec.hpp"

namespace dcn::serve {

enum class RequestStatus {
  kCompleted,        // served; latency and deadline_met are meaningful
  kRejected,         // shed at admission (queue full)
  kDeadlineExpired,  // admitted, but its deadline passed before service
  kFailed,           // lost: retry budget exhausted, or the whole fleet died
};

const char* request_status_name(RequestStatus status);

/// Final outcome of one request. `replica` is deliberately absent from the
/// CSV rendering: which replica served a batch is a scheduling detail, and
/// excluding it keeps the canonical log invariant across replica counts.
struct CompletionRecord {
  std::int64_t id = 0;
  RequestStatus status = RequestStatus::kCompleted;
  double arrival = 0.0;
  /// Batch this request was cut into (-1 when rejected at admission).
  std::int64_t batch = -1;
  /// Served requests in that batch (0 when never dispatched).
  int batch_size = 0;
  /// Replica whose completion won (-1 when never dispatched).
  int replica = -1;
  /// Batch cut instant (= service start; 0 when never dispatched).
  double dispatch = 0.0;
  /// Time from dispatch to the winning completion, retries, backoff, and
  /// straggler slowdown included.
  double service = 0.0;
  /// Instant the request left the system (rejection/expiry instant for
  /// non-served requests).
  double completion = 0.0;
  double deadline = std::numeric_limits<double>::infinity();
  bool deadline_met = false;
  /// Precision of the replica whose completion won (meaningful only for
  /// completed requests; the CSV renders "-" otherwise).
  simgpu::Precision precision = simgpu::Precision::kFp32;
  /// Whether a hedge raced for this request's batch.
  bool hedged = false;
  /// Dispatch attempts for the batch (1 + crash re-dispatches).
  int dispatch_attempts = 0;
};

/// Fleet self-healing configuration (all mitigations off by default — the
/// PR-4 serving behaviour — except health tracking, which is always on).
struct FleetOptions {
  HedgePolicy hedge;
  ShedPolicy shed;
  /// Seeded fleet-level fault schedule (crash storms, straggler waves).
  ChaosConfig chaos;
};

/// Aggregate serving metrics for one trace.
struct ServingReport {
  /// Pool label this server ran under (ServerConfig::pool; may be empty).
  std::string pool;
  /// Fleet size the occupancy denominator uses (dispatchable entries:
  /// whole-model replicas + pipeline groups).
  int replicas = 0;
  /// Simulated devices across the fleet (a pipeline group counts its K
  /// stage devices) — the cost-per-request denominator.
  int devices = 0;
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t deadline_expired = 0;
  std::int64_t failed = 0;
  std::int64_t completed = 0;

  std::int64_t batches = 0;
  std::int64_t size_flushes = 0;
  std::int64_t timeout_flushes = 0;
  double mean_batch_size = 0.0;
  std::int64_t max_queue_depth = 0;

  /// Requests carrying a finite deadline, and how many completed within it.
  std::int64_t slo_tracked = 0;
  std::int64_t slo_met = 0;

  /// End-to-end (arrival -> completion) latency of completed requests.
  LatencyHistogram latency;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  /// Last completion instant, and completed / makespan.
  double makespan = 0.0;
  double throughput = 0.0;
  /// Replica-seconds spent serving (primary + hedge dispatches; a crashed
  /// dispatch is busy until the crash instant).
  double busy_seconds = 0.0;
  /// Device-seconds reserved for serving: each dispatch charges its
  /// backend's reservation window (dispatch -> ready for the next batch)
  /// times the backend's device count. For an all-whole-model fleet this
  /// equals busy_seconds; a pipeline group's drain overlaps the next
  /// batch, so only the stage-0 window is charged across its K devices.
  double device_seconds = 0.0;

  /// Recovery work summed over replicas.
  int transient_retries = 0;
  int reinitializations = 0;

  // --- Fleet self-healing --------------------------------------------------
  /// Replica crashes observed (initial kills + failed restart attempts).
  std::int64_t deaths = 0;
  std::int64_t respawn_attempts = 0;
  std::int64_t respawns = 0;
  /// Replicas permanently lost (dead with the respawn budget spent).
  int replicas_lost = 0;
  /// Batches re-dispatched after their replica died mid-service.
  std::int64_t crash_redispatches = 0;
  std::int64_t hedges_launched = 0;
  std::int64_t hedges_won = 0;
  /// Redundant hedge completions discarded (both primary and hedge
  /// finished; exactly one CompletionRecord survives).
  std::int64_t duplicates_suppressed = 0;
  /// Completed requests served at a non-primary precision (the INT8
  /// degraded pool); reconciles with the served_precision CSV column.
  std::int64_t degraded_served = 0;
  std::int64_t shed_degrade_entries = 0;
  double degraded_seconds = 0.0;
  /// Span of the fleet's health-transition log (first to last transition,
  /// virtual seconds): how long the fleet churned before settling. 0 for a
  /// fault-free run.
  double time_to_recovery = 0.0;

  double reject_rate() const {
    return offered == 0 ? 0.0
                        : static_cast<double>(rejected) /
                              static_cast<double>(offered);
  }
  double slo_attainment() const {
    return slo_tracked == 0 ? 1.0
                            : static_cast<double>(slo_met) /
                                  static_cast<double>(slo_tracked);
  }
  /// Fraction of the fleet's replica-time spent serving: busy replica-
  /// seconds over makespan x replicas. The cascade stage-imbalance signal:
  /// a starved stage-2 pool reads near 0, a saturated stage-1 pool near 1.
  double occupancy() const {
    if (makespan <= 0.0 || replicas <= 0) return 0.0;
    return busy_seconds / (makespan * static_cast<double>(replicas));
  }

  /// Useful work per second: completions inside their deadline over the
  /// makespan (equals throughput when every request has no deadline).
  double goodput() const {
    if (makespan <= 0.0) return 0.0;
    return static_cast<double>(slo_tracked == 0 ? completed : slo_met) /
           makespan;
  }

  /// Fleet cost of one accepted request, in device-seconds — the
  /// datacenter bill divided by useful work. Lower is better; a pipeline
  /// fleet wins this metric only when its bubble + transfer overheads stay
  /// below what whole-model replicas lose to paging/memory pressure.
  double cost_per_request() const {
    return completed == 0 ? 0.0
                          : device_seconds / static_cast<double>(completed);
  }

  /// Human-readable metrics block (the serving analog of render_report).
  std::string to_string() const;
};

struct ServerConfig {
  /// Pool label for multi-model deployments (e.g. the scan cascade's
  /// "screener" and "full" stage fleets). Non-empty labels prefix this
  /// server's profiler counters and counter tracks as "serve.<pool>.*" so
  /// per-pool throughput/occupancy stay distinguishable in one recorder's
  /// chrome trace; empty keeps the classic "serve.*" names.
  std::string pool;
  BatchPolicy batch;
  /// Admission-queue bound (reject-on-full).
  std::size_t queue_capacity = 64;
  /// Whole-model replicas, each with a private device + resilient session.
  /// May be 0 only when extra backends are supplied (mixed/pipeline fleet).
  int replicas = 1;
  /// Precision every replica serves at (unless overridden per replica).
  simgpu::Precision precision = simgpu::Precision::kFp32;
  /// Per-replica precision overrides for mixed fleets (e.g. an int8 fast
  /// path alongside an fp32 reference replica). Empty = all replicas use
  /// `precision`; otherwise the length must equal `replicas`.
  std::vector<simgpu::Precision> replica_precisions;
  simgpu::DeviceSpec device;
  ios::ResilientOptions resilient;
  /// Base transient fault plan; re-armed before every dispatch with a seed
  /// mixed from (plan.seed, dispatch salt). Empty = no transient faults.
  simgpu::FaultPlan faults;
  /// Fleet self-healing layer (health, hedging, shedding, chaos).
  FleetOptions fleet;
};

class Server {
 public:
  /// `graph` must outlive the server. Replicas are constructed and
  /// initialized here (library load + weight upload on each private
  /// device), so serve() starts from a warm fleet. Throws ConfigError for
  /// replicas < 1 or an inconsistent fleet configuration.
  Server(const graph::Graph& graph, ios::Schedule schedule,
         ServerConfig config, profiler::Recorder* recorder = nullptr);

  /// Mixed fleet: `config.replicas` whole-model replicas built as above,
  /// plus `extra` pre-built backends (e.g. shard::PipelineGroup) appended
  /// after them, in order. Fleet entry indices — chaos victim draws,
  /// health transitions, dispatch preference ties — run over the combined
  /// list, whole-model entries first. `config.replicas` may be 0 when
  /// `extra` is non-empty (a pipeline-only fleet); replica_precisions, if
  /// set, still sizes against config.replicas only.
  Server(const graph::Graph& graph, ios::Schedule schedule,
         ServerConfig config, profiler::Recorder* recorder,
         std::vector<std::unique_ptr<Backend>> extra);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Run the trace through the server. `trace` must be arrival-sorted with
  /// strictly increasing ids (generate_trace output qualifies). Callable
  /// once per Server: replica clocks carry serving history.
  ServingReport serve(const std::vector<Request>& trace);

  /// Per-request completion log, sorted by request id (valid after
  /// serve()).
  const std::vector<CompletionRecord>& log() const { return log_; }

  /// Fleet health-transition log, in fire order (valid after serve()).
  const std::vector<HealthTransition>& health_transitions() const;

  /// Canonical byte-stable CSV rendering of a completion log: integral
  /// nanosecond timestamps, no replica column (see CompletionRecord).
  static std::string log_to_csv(const std::vector<CompletionRecord>& log);

 private:
  struct Replica;

  const graph::Graph& graph_;
  ios::Schedule schedule_;
  ServerConfig config_;
  profiler::Recorder* recorder_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::unique_ptr<HealthMonitor> monitor_;
  std::vector<CompletionRecord> log_;
  bool served_ = false;
};

}  // namespace dcn::serve
