#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <sstream>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "profiler/counters.hpp"
#include "simgpu/device.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::serve {
namespace {

/// Delay between a replica crash and the server acting on it (failure
/// detection + re-dispatch latency, virtual seconds).
constexpr double kFailureDetection = 1.0e-3;

}  // namespace

const char* request_status_name(RequestStatus status) {
  switch (status) {
    case RequestStatus::kCompleted:
      return "completed";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kDeadlineExpired:
      return "deadline_expired";
    case RequestStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

struct Server::Replica {
  /// The dispatchable unit: a whole-model replica or a pipeline group.
  std::unique_ptr<Backend> backend;
  simgpu::Precision precision = simgpu::Precision::kFp32;
  double free_at = 0.0;
  /// Fleet-level chaos plan (replica deaths + straggler windows); the
  /// transient per-dispatch plan is a separate channel (config.faults).
  simgpu::FaultPlan chaos;
  /// kReplicaDeath rules sorted by time; `next_death`/`death_fires` track
  /// the armed rule (-1 fires = re-kills every restart; 0 = spent).
  std::vector<simgpu::FaultRule> death_rules;
  std::size_t next_death_rule = 0;
  double next_death = std::numeric_limits<double>::infinity();
  int death_fires = 0;
  /// Pending restart instant (+inf when none scheduled).
  double respawn_at = std::numeric_limits<double>::infinity();

  /// Arm the earliest death rule strictly after `after` (rules that would
  /// have fired while the replica was already down are skipped).
  void arm_next_death(double after) {
    next_death = std::numeric_limits<double>::infinity();
    death_fires = 0;
    while (next_death_rule < death_rules.size()) {
      const simgpu::FaultRule& rule = death_rules[next_death_rule];
      ++next_death_rule;
      if (rule.after_time > after) {
        next_death = rule.after_time;
        death_fires = rule.max_fires;
        break;
      }
    }
  }
};

Server::Server(const graph::Graph& graph, ios::Schedule schedule,
               ServerConfig config, profiler::Recorder* recorder)
    : Server(graph, std::move(schedule), std::move(config), recorder, {}) {}

Server::Server(const graph::Graph& graph, ios::Schedule schedule,
               ServerConfig config, profiler::Recorder* recorder,
               std::vector<std::unique_ptr<Backend>> extra)
    : graph_(graph),
      schedule_(std::move(schedule)),
      config_(std::move(config)),
      recorder_(recorder) {
  const int fleet_size =
      config_.replicas + static_cast<int>(extra.size());
  if (config_.replicas < 0 || fleet_size < 1) {
    throw ConfigError("Server: fleet must have >= 1 entry, got " +
                      std::to_string(config_.replicas) +
                      " replicas + " + std::to_string(extra.size()) +
                      " extra backends");
  }
  if (!config_.replica_precisions.empty() &&
      config_.replica_precisions.size() !=
          static_cast<std::size_t>(config_.replicas)) {
    throw ConfigError(
        "Server: replica_precisions has " +
        std::to_string(config_.replica_precisions.size()) +
        " entries for " + std::to_string(config_.replicas) + " replicas");
  }
  monitor_ = std::make_unique<HealthMonitor>(fleet_size);
  // Chaos victims draw over the whole fleet: a death landing on an extra
  // backend (a pipeline group) takes down that one group, not the fleet.
  std::vector<simgpu::FaultPlan> chaos_plans;
  if (!config_.fleet.chaos.empty()) {
    chaos_plans = materialize_chaos(config_.fleet.chaos, fleet_size);
  }
  replicas_.reserve(static_cast<std::size_t>(fleet_size));
  for (int r = 0; r < fleet_size; ++r) {
    auto replica = std::make_unique<Replica>();
    if (r < config_.replicas) {
      const simgpu::Precision precision =
          config_.replica_precisions.empty()
              ? config_.precision
              : config_.replica_precisions[static_cast<std::size_t>(r)];
      replica->precision = precision;
      replica->backend = std::make_unique<WholeModelBackend>(
          graph_, schedule_, config_.device, config_.resilient, precision,
          recorder_);
    } else {
      replica->backend =
          std::move(extra[static_cast<std::size_t>(r - config_.replicas)]);
      DCN_CHECK(replica->backend != nullptr) << "null extra backend";
      replica->precision = replica->backend->precision();
    }
    replica->free_at = 0.0;
    if (!chaos_plans.empty()) {
      replica->chaos = chaos_plans[static_cast<std::size_t>(r)];
      for (const simgpu::FaultRule& rule : replica->chaos.rules) {
        if (rule.kind == simgpu::FaultKind::kReplicaDeath &&
            rule.after_time >= 0.0) {
          replica->death_rules.push_back(rule);
        }
      }
      std::sort(replica->death_rules.begin(), replica->death_rules.end(),
                [](const simgpu::FaultRule& a, const simgpu::FaultRule& b) {
                  return a.after_time < b.after_time;
                });
      replica->arm_next_death(-std::numeric_limits<double>::infinity());
    }
    replicas_.push_back(std::move(replica));
  }
}

Server::~Server() = default;

const std::vector<HealthTransition>& Server::health_transitions() const {
  return monitor_->transitions();
}

ServingReport Server::serve(const std::vector<Request>& trace) {
  DCN_CHECK(!served_) << "serve() is single-shot; construct a fresh Server";
  served_ = true;

  DynamicBatcher batcher(config_.batch, config_.queue_capacity);
  HedgeController hedges(config_.fleet.hedge);
  LoadShedder shedder(config_.fleet.shed);
  HealthMonitor& monitor = *monitor_;

  const int fleet_size = static_cast<int>(replicas_.size());

  ServingReport report;
  report.pool = config_.pool;
  report.replicas = fleet_size;
  for (const auto& replica : replicas_) {
    report.devices += replica->backend->device_count();
  }
  report.offered = static_cast<std::int64_t>(trace.size());

  // Per-pool counter namespace: an empty pool keeps the classic "serve.*"
  // names, so single-model deployments are unchanged byte-for-byte.
  const std::string prefix =
      config_.pool.empty() ? "serve." : "serve." + config_.pool + '.';

  const double inf = std::numeric_limits<double>::infinity();
  std::size_t next_arrival = 0;
  double now = 0.0;
  std::int64_t dispatched_batches = 0;
  std::int64_t served_requests = 0;

  /// A batch whose replica died mid-service, awaiting re-dispatch to a
  /// survivor once the failure-detection delay elapses.
  struct PendingBatch {
    std::vector<Request> requests;
    std::int64_t batch_index = 0;
    int attempt = 2;
    double ready_at = 0.0;
  };
  std::deque<PendingBatch> redispatch;

  const auto record_instant = [&](const std::string& name, double time,
                                  const std::string& detail) {
    if (recorder_ != nullptr) recorder_->record_instant(name, time, detail);
  };

  // Mirror the monitor's transition log into the profiler as instant events
  // plus fleet-population counter tracks, as each transition lands.
  std::size_t seen_transitions = 0;
  const auto drain_transitions = [&] {
    for (; seen_transitions < monitor.transitions().size();
         ++seen_transitions) {
      const HealthTransition& t = monitor.transitions()[seen_transitions];
      if (recorder_ == nullptr) continue;
      recorder_->record_instant(
          std::string("replica.") + replica_state_name(t.to), t.time,
          "replica " + std::to_string(t.replica) + ": " +
              replica_state_name(t.from) + " -> " +
              replica_state_name(t.to) + " (" + t.reason + ")");
      recorder_->record_counter_sample("fleet.healthy_replicas", t.time,
                                       monitor.healthy_count());
      recorder_->record_counter_sample("fleet.dead_replicas", t.time,
                                       monitor.dead_count());
    }
  };

  const auto sample_depth = [&](double t) {
    const auto depth = static_cast<std::int64_t>(batcher.queue().size());
    report.max_queue_depth = std::max(report.max_queue_depth, depth);
    if (recorder_ != nullptr) {
      recorder_->record_counter_sample(prefix + "queue_depth", t, depth);
    }
  };

  // Replicas busy (free_at in the future) at instant `t` — the occupancy
  // track that makes cascade stage imbalance visible next to queue depth.
  const auto sample_busy = [&](double t) {
    if (recorder_ == nullptr) return;
    std::int64_t busy = 0;
    for (const auto& replica : replicas_) {
      if (replica->free_at > t) ++busy;
    }
    recorder_->record_counter_sample(prefix + "busy_replicas", t, busy);
  };

  const auto update_shedder = [&](double t) {
    const double occupancy = static_cast<double>(batcher.queue().size()) /
                             static_cast<double>(config_.queue_capacity);
    if (shedder.update(t, occupancy)) {
      record_instant(
          shedder.degraded() ? "shed.degrade" : "shed.restore", t,
          "queue occupancy " + format_double(occupancy, 2));
      if (recorder_ != nullptr) {
        recorder_->record_counter_sample(prefix + "shed_degraded", t,
                                         shedder.degraded() ? 1 : 0);
      }
    }
  };

  // Kill a replica at virtual time `t`: burn one crash fire, mark it dead,
  // and schedule a restart under the bounded respawn budget.
  const auto kill_replica = [&](int r, double t, const std::string& why) {
    Replica& rep = *replicas_[static_cast<std::size_t>(r)];
    if (rep.death_fires > 0) --rep.death_fires;
    ++report.deaths;
    rep.free_at = t;
    monitor.mark_dead(r, t, why);
    if (monitor.can_respawn(r)) {
      const double delay = monitor.next_respawn_delay(r);
      rep.respawn_at = t + kFailureDetection + delay;
    } else {
      rep.respawn_at = inf;
      monitor.mark_lost(r, t, "respawn budget spent");
    }
    drain_transitions();
  };

  // Health-weighted least-outstanding replica selection at instant `t`:
  // free, alive, breaker permitting, no crash already due. Preference
  // order: shed-aware precision pool, then non-suspect (probe-due suspects
  // rank as healthy so their EWMA gets fresh samples to decay on), then
  // least-recently-busy (LRU rotation keeps every healthy replica sampled —
  // ordering by EWMA first would starve a replica after one unlucky slow
  // service and blind the straggler detector), then lowest latency EWMA,
  // then lowest index — a total, deterministic order.
  const auto pick_replica = [&](double t, int exclude) -> int {
    int best = -1;
    std::array<double, 4> best_key{};
    for (int r = 0; r < fleet_size; ++r) {
      if (r == exclude) continue;
      const Replica& rep = *replicas_[static_cast<std::size_t>(r)];
      if (!monitor.alive(r)) continue;
      if (rep.free_at > t) continue;
      if (!monitor.breaker(r).allows(t)) continue;
      if (rep.death_fires != 0 && rep.next_death <= t) continue;
      double pool = 0.0;
      if (config_.fleet.shed.enabled) {
        const bool degraded_pool = rep.precision != config_.precision;
        pool = shedder.degraded() == degraded_pool ? 0.0 : 1.0;
      }
      const bool penalized = monitor.state(r) == ReplicaState::kSuspect &&
                             !monitor.probe_due(r, t);
      const std::array<double, 4> key = {pool, penalized ? 1.0 : 0.0,
                                         rep.free_at,
                                         monitor.latency_ewma(r)};
      if (best < 0 || key < best_key) {
        best = r;
        best_key = key;
      }
    }
    return best;
  };

  struct ServiceOutcome {
    bool ok = false;
    bool crashed = false;
    double crash_time = 0.0;
    double end = 0.0;
    /// When the backend can take its next dispatch (== end for whole-model
    /// replicas; stage-0 drain for pipeline groups).
    double ready = 0.0;
  };

  // Run one dispatch synchronously on the virtual clock. The whole outcome
  // — transient-fault recovery, straggler slowdown, mid-service crash — is
  // resolved here at dispatch time, which is what lets the event loop stay
  // a simple five-way minimum.
  const auto run_on_replica = [&](int r, double start,
                                  std::int64_t batch_index, int attempt,
                                  std::uint64_t channel,
                                  std::int64_t batch_size) -> ServiceOutcome {
    Replica& rep = *replicas_[static_cast<std::size_t>(r)];
    // Dispatch salt: first-attempt primaries keep the batch-index salt
    // (the replica-count-invariance contract pins it); re-dispatches and
    // hedges mix in the attempt number and a channel so their fault and
    // jitter streams are independent of the primary's.
    const std::uint64_t salt =
        (attempt == 1 && channel == 0)
            ? static_cast<std::uint64_t>(batch_index)
            : mix_seed(mix_seed(static_cast<std::uint64_t>(batch_index),
                                static_cast<std::uint64_t>(attempt)),
                       channel);
    rep.backend->arm_faults(config_.faults, salt);
    rep.backend->reseed_backoff(salt);
    const BackendOutcome raw = rep.backend->serve_batch(start, batch_size);
    // Straggler windows scale the whole service (retries included); the
    // factor is sampled at dispatch so the outcome resolves synchronously.
    // The factor == 1 case must return raw.end exactly: rounding
    // start + (raw.end - start) can land one ULP below the backend's
    // device clock, and the next dispatch at free_at would then ask the
    // device for a negative sleep.
    const double factor = rep.chaos.straggler_factor(start);
    ServiceOutcome out;
    out.end = factor == 1.0 ? raw.end : start + (raw.end - start) * factor;
    out.ready =
        factor == 1.0 ? raw.ready : start + (raw.ready - start) * factor;
    out.ok = raw.ok;
    // A crash landing inside the service window overrides the result: the
    // replica dies mid-flight and the batch is lost with it.
    if (rep.death_fires != 0 && rep.next_death > start &&
        rep.next_death < out.end) {
      out.crashed = true;
      out.crash_time = rep.next_death;
      out.ok = false;
    }
    return out;
  };

  // Dispatch `requests` as one batch at `start`: run the primary, race a
  // hedge when warranted, push crash victims onto the re-dispatch queue,
  // and write one CompletionRecord per request for every settled outcome.
  const auto dispatch_batch = [&](std::vector<Request> requests,
                                  std::int64_t batch_index, int attempt,
                                  double start) {
    const int primary = pick_replica(start, -1);
    DCN_CHECK(primary >= 0) << "dispatch with no eligible replica";
    if (monitor.state(primary) == ReplicaState::kSuspect) {
      monitor.note_probe(primary, start);
    }
    const auto batch_size = static_cast<std::int64_t>(requests.size());
    const ServiceOutcome primary_out =
        run_on_replica(primary, start, batch_index, attempt, 0, batch_size);
    ++dispatched_batches;
    served_requests += batch_size;
    const double primary_busy =
        (primary_out.crashed ? primary_out.crash_time : primary_out.end) -
        start;
    report.busy_seconds += primary_busy;
    // Device cost charges the reservation window (start -> ready for the
    // next dispatch) per owned device: a whole-model replica is reserved
    // for the full service, a pipeline group only until its first stage
    // frees (the drain overlaps the next batch's fill).
    const double primary_reserved =
        (primary_out.crashed ? primary_out.crash_time : primary_out.ready) -
        start;
    report.device_seconds +=
        primary_reserved *
        replicas_[static_cast<std::size_t>(primary)]->backend->device_count();
    if (recorder_ != nullptr) {
      recorder_->record_counter_sample(prefix + "batch_size", start,
                                       batch_size);
      sample_busy(start);
    }

    if (primary_out.crashed) {
      kill_replica(primary, primary_out.crash_time,
                   "crash during service of batch " +
                       std::to_string(batch_index));
      ++report.crash_redispatches;
      PendingBatch pending;
      pending.requests = std::move(requests);
      pending.batch_index = batch_index;
      pending.attempt = attempt + 1;
      pending.ready_at = primary_out.crash_time + kFailureDetection;
      redispatch.push_back(std::move(pending));
      return;
    }
    replicas_[static_cast<std::size_t>(primary)]->free_at = primary_out.ready;

    // Hedge decision uses the delay derived from *prior* observations only
    // (mid-flight, the server knows elapsed time, not the final service).
    const auto hedge_delay = hedges.delay();
    const double primary_service = primary_out.end - start;
    if (primary_out.ok) {
      monitor.observe_success(primary, primary_out.end, primary_service);
      hedges.observe(primary_service);
    } else {
      const int opens_before = monitor.breaker(primary).opens();
      monitor.observe_failure(primary, primary_out.end);
      if (monitor.breaker(primary).opens() > opens_before) {
        record_instant("breaker.open", primary_out.end,
                       "replica " + std::to_string(primary) +
                           " breaker opened");
      }
    }
    drain_transitions();

    int winner = primary;
    double winner_end = primary_out.end;
    bool winner_ok = primary_out.ok;
    bool hedged = false;
    if (hedge_delay.has_value() && primary_service > *hedge_delay) {
      const double hedge_start = start + *hedge_delay;
      const int mate = pick_replica(hedge_start, primary);
      if (mate >= 0) {
        hedged = true;
        ++report.hedges_launched;
        record_instant("hedge.launch", hedge_start,
                       "batch " + std::to_string(batch_index) +
                           " hedged on replica " + std::to_string(mate));
        const ServiceOutcome hedge_out = run_on_replica(
            mate, hedge_start, batch_index, attempt, 1, batch_size);
        const double hedge_busy =
            (hedge_out.crashed ? hedge_out.crash_time : hedge_out.end) -
            hedge_start;
        report.busy_seconds += hedge_busy;
        const double hedge_reserved =
            (hedge_out.crashed ? hedge_out.crash_time : hedge_out.ready) -
            hedge_start;
        report.device_seconds +=
            hedge_reserved *
            replicas_[static_cast<std::size_t>(mate)]->backend->device_count();
        if (hedge_out.crashed) {
          // The hedge replica died mid-race; the primary outcome stands,
          // so nothing is re-dispatched.
          kill_replica(mate, hedge_out.crash_time,
                       "crash during hedge of batch " +
                           std::to_string(batch_index));
        } else {
          replicas_[static_cast<std::size_t>(mate)]->free_at = hedge_out.ready;
          if (hedge_out.ok) {
            monitor.observe_success(mate, hedge_out.end,
                                    hedge_out.end - hedge_start);
            hedges.observe(hedge_out.end - hedge_start);
            if (!winner_ok || hedge_out.end < winner_end) {
              // First completion wins; a completed primary's duplicate
              // result is suppressed deterministically.
              if (winner_ok) ++report.duplicates_suppressed;
              winner = mate;
              winner_end = hedge_out.end;
              winner_ok = true;
              ++report.hedges_won;
              record_instant("hedge.win", hedge_out.end,
                             "batch " + std::to_string(batch_index) +
                                 " won by hedge on replica " +
                                 std::to_string(mate));
            } else {
              ++report.duplicates_suppressed;
            }
          } else {
            monitor.observe_failure(mate, hedge_out.end);
          }
          drain_transitions();
        }
      }
    }

    for (const Request& request : requests) {
      CompletionRecord record;
      record.id = request.id;
      record.status =
          winner_ok ? RequestStatus::kCompleted : RequestStatus::kFailed;
      record.arrival = request.arrival;
      record.batch = batch_index;
      record.batch_size = static_cast<int>(batch_size);
      record.replica = winner;
      record.dispatch = start;
      record.service = winner_end - start;
      record.completion = winner_end;
      record.deadline = request.deadline;
      record.deadline_met = winner_ok && winner_end <= request.deadline;
      record.precision =
          replicas_[static_cast<std::size_t>(winner)]->precision;
      record.hedged = hedged;
      record.dispatch_attempts = attempt;
      log_.push_back(record);
    }
  };

  while (true) {
    const double t_arrival =
        next_arrival < trace.size() ? trace[next_arrival].arrival : inf;

    // Scan the fleet: pending idle-replica deaths (in-flight crashes are
    // resolved at dispatch), pending respawns, and the earliest instant any
    // eligible replica can take a batch.
    double t_death = inf;
    int death_replica = -1;
    double t_respawn = inf;
    int respawn_replica = -1;
    double fleet_free = inf;
    bool any_alive = false;
    bool any_respawn = false;
    for (int r = 0; r < fleet_size; ++r) {
      const Replica& rep = *replicas_[static_cast<std::size_t>(r)];
      if (monitor.alive(r)) {
        any_alive = true;
        if (rep.death_fires != 0 && rep.next_death < inf) {
          const double t = std::max(rep.next_death, now);
          if (t < t_death) {
            t_death = t;
            death_replica = r;
          }
        }
        const double at = std::max(now, rep.free_at);
        fleet_free = std::min(fleet_free, monitor.breaker(r).allows_at(at));
      } else if (rep.respawn_at < inf) {
        any_respawn = true;
        if (rep.respawn_at < t_respawn) {
          t_respawn = rep.respawn_at;
          respawn_replica = r;
        }
      }
    }

    // Fleet extinct with no arrivals left: every admitted-but-unserved
    // request is lost. (While arrivals continue they keep flowing into the
    // bounded queue so rejection accounting stays truthful.)
    if (!any_alive && !any_respawn && t_arrival == inf) {
      const auto fail_request = [&](const Request& request,
                                    std::int64_t batch_index) {
        CompletionRecord record;
        record.id = request.id;
        record.status = RequestStatus::kFailed;
        record.arrival = request.arrival;
        record.batch = batch_index;
        record.completion = now;
        record.deadline = request.deadline;
        log_.push_back(record);
      };
      for (const PendingBatch& pending : redispatch) {
        for (const Request& request : pending.requests) {
          fail_request(request, pending.batch_index);
        }
      }
      redispatch.clear();
      for (const Request& request : batcher.drain()) {
        fail_request(request, -1);
      }
      break;
    }

    const auto flush_at = fleet_free < inf
                              ? batcher.next_flush_time(
                                    std::max(fleet_free, now))
                              : std::nullopt;
    const double t_cut = flush_at ? *flush_at : inf;

    double t_redispatch = inf;
    std::size_t redispatch_pick = 0;
    if (fleet_free < inf) {
      for (std::size_t i = 0; i < redispatch.size(); ++i) {
        const double t = std::max(redispatch[i].ready_at, fleet_free);
        if (t < t_redispatch) {
          t_redispatch = t;
          redispatch_pick = i;
        }
      }
    }

    // Once the trace is drained and nothing is queued or awaiting
    // re-dispatch, the run is over — deaths scheduled after the last
    // completion never affect a request, so they are not simulated.
    if (t_arrival == inf && batcher.queue().empty() && redispatch.empty()) {
      break;
    }

    now = std::min({t_death, t_respawn, t_arrival, t_redispatch, t_cut});

    // Deaths and respawns resolve before any same-instant dispatch so
    // eligibility is never stale; arrivals win the remaining ties so a
    // request landing exactly at the cut instant can still join the batch.
    if (t_death == now) {
      kill_replica(death_replica, now, "scheduled crash");
      continue;
    }
    if (t_respawn == now) {
      Replica& rep = *replicas_[static_cast<std::size_t>(respawn_replica)];
      rep.respawn_at = inf;
      ++report.respawn_attempts;
      if (rep.death_fires != 0) {
        // Permanent fault: the crash re-fires on the restart attempt.
        if (rep.death_fires > 0) --rep.death_fires;
        ++report.deaths;
        record_instant("replica.respawn_failed", now,
                       "replica " + std::to_string(respawn_replica) +
                           " crashed again on restart");
        if (monitor.can_respawn(respawn_replica)) {
          rep.respawn_at = now + monitor.next_respawn_delay(respawn_replica);
        } else {
          monitor.mark_lost(respawn_replica, now, "respawn budget spent");
          drain_transitions();
        }
      } else {
        // Restart succeeds: the backend hard-resets every owned device and
        // re-initializes; it rejoins once the restart cost is paid.
        rep.free_at = rep.backend->restart(now);
        rep.arm_next_death(now);
        monitor.mark_respawned(respawn_replica, now);
        ++report.respawns;
        drain_transitions();
        record_instant("replica.respawn", now,
                       "replica " + std::to_string(respawn_replica) +
                           " back after " +
                           std::to_string(monitor.restarts_used(
                               respawn_replica)) +
                           " restart(s)");
      }
      continue;
    }
    if (t_arrival == now) {
      const Request& request = trace[next_arrival++];
      if (!batcher.offer(request)) {
        CompletionRecord record;
        record.id = request.id;
        record.status = RequestStatus::kRejected;
        record.arrival = request.arrival;
        record.completion = now;
        record.deadline = request.deadline;
        log_.push_back(record);
      }
      sample_depth(now);
      update_shedder(now);
      continue;
    }
    if (t_redispatch == now) {
      PendingBatch pending = std::move(redispatch[redispatch_pick]);
      redispatch.erase(redispatch.begin() +
                       static_cast<std::ptrdiff_t>(redispatch_pick));
      // Deadlines are re-checked here: the crash plus the detection delay
      // may have burned a request's whole budget.
      std::vector<Request> live;
      live.reserve(pending.requests.size());
      for (const Request& request : pending.requests) {
        if (request.deadline < now) {
          CompletionRecord record;
          record.id = request.id;
          record.status = RequestStatus::kDeadlineExpired;
          record.arrival = request.arrival;
          record.batch = pending.batch_index;
          record.completion = now;
          record.deadline = request.deadline;
          log_.push_back(record);
        } else {
          live.push_back(request);
        }
      }
      if (!live.empty()) {
        dispatch_batch(std::move(live), pending.batch_index, pending.attempt,
                       now);
      }
      continue;
    }

    // Cut a batch. Requests whose deadline already passed were diverted at
    // formation (DynamicBatcher::flush) and only need their records.
    Batch batch = batcher.flush(now);
    sample_depth(now);
    update_shedder(now);
    for (const Request& request : batch.expired) {
      CompletionRecord record;
      record.id = request.id;
      record.status = RequestStatus::kDeadlineExpired;
      record.arrival = request.arrival;
      record.batch = batch.index;
      record.completion = now;
      record.deadline = request.deadline;
      log_.push_back(record);
    }
    if (batch.requests.empty()) continue;
    dispatch_batch(std::move(batch.requests), batch.index, 1, now);
  }

  std::sort(log_.begin(), log_.end(),
            [](const CompletionRecord& a, const CompletionRecord& b) {
              return a.id < b.id;
            });

  for (const CompletionRecord& record : log_) {
    switch (record.status) {
      case RequestStatus::kCompleted:
        ++report.completed;
        report.latency.add(record.completion - record.arrival);
        report.makespan = std::max(report.makespan, record.completion);
        if (record.precision != config_.precision) ++report.degraded_served;
        break;
      case RequestStatus::kRejected:
        break;  // counted via the queue below
      case RequestStatus::kDeadlineExpired:
        ++report.deadline_expired;
        break;
      case RequestStatus::kFailed:
        ++report.failed;
        break;
    }
    if (std::isfinite(record.deadline)) {
      ++report.slo_tracked;
      if (record.deadline_met) ++report.slo_met;
    }
  }
  report.admitted = batcher.queue().admitted();
  report.rejected = batcher.queue().rejected();
  report.batches = batcher.batches();
  report.size_flushes = batcher.size_flushes();
  report.timeout_flushes = batcher.timeout_flushes();
  report.mean_batch_size =
      dispatched_batches == 0 ? 0.0
                              : static_cast<double>(served_requests) /
                                    static_cast<double>(dispatched_batches);
  report.p50 = report.latency.quantile(0.50);
  report.p95 = report.latency.quantile(0.95);
  report.p99 = report.latency.quantile(0.99);
  if (report.makespan > 0.0) {
    report.throughput =
        static_cast<double>(report.completed) / report.makespan;
  }
  for (const auto& replica : replicas_) {
    const ios::SessionStats stats = replica->backend->stats();
    report.transient_retries += stats.transient_retries;
    report.reinitializations += stats.reinitializations;
  }
  report.replicas_lost = monitor.dead_count();
  report.shed_degrade_entries = shedder.degrade_entries();
  report.degraded_seconds = shedder.degraded_seconds(now);
  if (!monitor.transitions().empty()) {
    report.time_to_recovery = monitor.transitions().back().time -
                              monitor.transitions().front().time;
  }

  profiler::counter_add(prefix + "offered", report.offered);
  profiler::counter_add(prefix + "admitted", report.admitted);
  profiler::counter_add(prefix + "rejected", report.rejected);
  profiler::counter_add(prefix + "completed", report.completed);
  profiler::counter_add(prefix + "batches", report.batches);
  profiler::counter_add(prefix + "slo_miss",
                        report.slo_tracked - report.slo_met);
  profiler::counter_add(prefix + "deaths", report.deaths);
  profiler::counter_add(prefix + "respawns", report.respawns);
  profiler::counter_add(prefix + "hedges", report.hedges_launched);
  profiler::counter_add(prefix + "degraded_served", report.degraded_served);
  // Integer permille so the render_report counter table can carry the
  // pool's utilization next to its throughput counters.
  profiler::counter_add(prefix + "occupancy_permille",
                        static_cast<std::int64_t>(
                            std::llround(report.occupancy() * 1000.0)));
  return report;
}

std::string ServingReport::to_string() const {
  std::ostringstream os;
  os << "Serving Statistics" << (pool.empty() ? "" : " [pool " + pool + "]")
     << ":\n";
  TextTable requests({"Requests", "Count", "Share"});
  requests.add_row({"offered", std::to_string(offered), "-"});
  requests.add_row({"completed", std::to_string(completed),
                    offered == 0 ? "-"
                                 : format_percent(static_cast<double>(
                                                      completed) /
                                                  static_cast<double>(
                                                      offered))});
  requests.add_row({"rejected", std::to_string(rejected),
                    format_percent(reject_rate())});
  requests.add_row(
      {"deadline-expired", std::to_string(deadline_expired), "-"});
  requests.add_row({"failed", std::to_string(failed), "-"});
  os << requests.to_string() << '\n';

  TextTable batching({"Batching", "Value"});
  batching.add_row({"batches", std::to_string(batches)});
  batching.add_row({"size-triggered", std::to_string(size_flushes)});
  batching.add_row({"timeout-triggered", std::to_string(timeout_flushes)});
  batching.add_row({"mean batch size", format_double(mean_batch_size, 2)});
  batching.add_row({"max queue depth", std::to_string(max_queue_depth)});
  os << batching.to_string() << '\n';

  TextTable latency_table({"Latency", "Value"});
  latency_table.add_row({"p50", format_ms(p50 * 1e3)});
  latency_table.add_row({"p95", format_ms(p95 * 1e3)});
  latency_table.add_row({"p99", format_ms(p99 * 1e3)});
  latency_table.add_row({"mean", format_ms(latency.mean() * 1e3)});
  latency_table.add_row({"max", format_ms(latency.max() * 1e3)});
  latency_table.add_row(
      {"throughput", format_double(throughput, 1) + " req/s"});
  latency_table.add_row({"goodput", format_double(goodput(), 1) + " req/s"});
  latency_table.add_row({"occupancy", format_percent(occupancy()) + " of " +
                                          std::to_string(replicas) +
                                          " replica(s)"});
  latency_table.add_row({"devices", std::to_string(devices)});
  latency_table.add_row({"device-seconds", format_double(device_seconds, 3)});
  latency_table.add_row({"cost per request",
                         format_double(cost_per_request() * 1e3, 4) +
                             " device-ms"});
  os << latency_table.to_string();

  if (slo_tracked > 0) {
    os << "\nSLO: " << slo_met << "/" << slo_tracked << " within deadline ("
       << format_percent(slo_attainment()) << ")\n";
  }
  if (transient_retries > 0 || reinitializations > 0) {
    os << "Recovery: " << transient_retries << " transient retrie(s), "
       << reinitializations << " device reinitialization(s)\n";
  }
  if (deaths > 0 || hedges_launched > 0 || shed_degrade_entries > 0) {
    os << "\nFleet Self-Healing:\n";
    TextTable fleet({"Fleet", "Value"});
    fleet.add_row({"replica deaths", std::to_string(deaths)});
    fleet.add_row({"respawns", std::to_string(respawns) + "/" +
                                   std::to_string(respawn_attempts) +
                                   " attempt(s)"});
    fleet.add_row({"replicas lost", std::to_string(replicas_lost)});
    fleet.add_row(
        {"crash re-dispatches", std::to_string(crash_redispatches)});
    fleet.add_row({"hedges", std::to_string(hedges_won) + " won / " +
                                 std::to_string(hedges_launched) +
                                 " launched"});
    fleet.add_row(
        {"duplicates suppressed", std::to_string(duplicates_suppressed)});
    fleet.add_row({"degraded served", std::to_string(degraded_served)});
    fleet.add_row({"degraded time",
                   format_ms(degraded_seconds * 1e3) + " over " +
                       std::to_string(shed_degrade_entries) + " episode(s)"});
    fleet.add_row(
        {"time to recovery", format_ms(time_to_recovery * 1e3)});
    os << fleet.to_string();
  }
  return os.str();
}

namespace {

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

}  // namespace

std::string Server::log_to_csv(const std::vector<CompletionRecord>& log) {
  std::ostringstream os;
  os << "id,status,arrival_ns,batch,batch_size,dispatch_ns,service_ns,"
        "completion_ns,latency_ns,deadline_ns,deadline_met,served_precision,"
        "hedged\n";
  for (const CompletionRecord& record : log) {
    os << record.id << ',' << request_status_name(record.status) << ','
       << to_ns(record.arrival) << ',' << record.batch << ','
       << record.batch_size << ',' << to_ns(record.dispatch) << ','
       << to_ns(record.service) << ',' << to_ns(record.completion) << ','
       << to_ns(record.completion - record.arrival) << ','
       << (std::isfinite(record.deadline) ? to_ns(record.deadline) : -1)
       << ',' << (record.deadline_met ? 1 : 0) << ','
       << (record.status == RequestStatus::kCompleted
               ? simgpu::precision_name(record.precision)
               : "-")
       << ',' << (record.hedged ? 1 : 0) << '\n';
  }
  return os.str();
}

}  // namespace dcn::serve
