// Replica health tracking, circuit breaking, and respawn policy.
//
// The fleet self-healing layer (DESIGN.md "Fleet failure model &
// self-healing") separates *mechanism* from *policy*: the Server owns the
// replica devices and the event loop; this module owns the per-replica
// health state machine it consults before every dispatch:
//
//   - HealthMonitor: healthy / suspect / dead per replica. Suspicion comes
//     from a latency EWMA compared against the fleet's fastest replica
//     (min-EWMA baseline), the classic straggler detector; death comes from
//     crash faults the server reports. Dead replicas respawn under a
//     bounded-restart budget with exponential backoff, so a permanently
//     faulted replica is given up on deterministically.
//   - CircuitBreaker: closed / open / half-open per replica, driven by
//     consecutive service failures. Open breakers divert dispatch away
//     from a replica that keeps failing; after a cool-down the breaker
//     half-opens and trial traffic decides whether it closes again.
//
// Everything runs on the virtual clock and is a pure function of the
// observation sequence — no wall time, no hidden RNG draws — so fleet
// behaviour replays byte-for-byte from a seed (the chaos determinism
// contract).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/retry.hpp"

namespace dcn::serve {

// --- Circuit breaker --------------------------------------------------------

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* breaker_state_name(BreakerState state);

/// Per-replica circuit breaker. Three consecutive failures trip it open;
/// after a 50 ms cool-down it half-opens, and two consecutive half-open
/// successes close it again. State is stored as closed/open plus the open
/// instant; half-open is *derived* from the clock (open and past the
/// cool-down), so no timer event is needed to transition.
class CircuitBreaker {
 public:
  /// State at virtual time `now`.
  BreakerState state(double now) const;
  /// Whether dispatch may use the replica at `now` (closed or half-open).
  bool allows(double now) const { return state(now) != BreakerState::kOpen; }
  /// First instant >= `now` at which the breaker stops blocking (now when
  /// it already allows traffic).
  double allows_at(double now) const;

  void record_success(double now);
  void record_failure(double now);

  /// Times the breaker tripped open (re-opens from half-open included).
  int opens() const { return opens_; }

 private:
  BreakerState stored_ = BreakerState::kClosed;
  double opened_at_ = 0.0;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  int opens_ = 0;
};

// --- Health monitor ---------------------------------------------------------

enum class ReplicaState { kHealthy, kSuspect, kDead };

const char* replica_state_name(ReplicaState state);

/// One health-state transition, in fire order (the fleet's event log; the
/// profiler renders these as instant events).
struct HealthTransition {
  double time = 0.0;
  int replica = -1;
  ReplicaState from = ReplicaState::kHealthy;
  ReplicaState to = ReplicaState::kHealthy;
  std::string reason;
};

/// Per-replica health state machine. A replica is suspect when its service
/// latency EWMA (alpha 0.3) exceeds 3x the fleet's fastest EWMA; both need
/// 3 samples, and at least two replicas must be sampled. A suspect replica
/// is probed with real traffic every 50 ms so its EWMA can decay back. Each
/// replica may respawn 3 times, waiting 5, 10 and 20 ms (a jitter-free
/// backoff ladder); after that it is permanently lost.
class HealthMonitor {
 public:
  /// Throws ConfigError for replicas < 1.
  explicit HealthMonitor(int replicas);

  ReplicaState state(int replica) const;
  bool alive(int replica) const {
    return state(replica) != ReplicaState::kDead;
  }
  int healthy_count() const;
  int suspect_count() const;
  int dead_count() const;

  CircuitBreaker& breaker(int replica);
  const CircuitBreaker& breaker(int replica) const;

  /// Latency EWMA of `replica` (0 before any sample).
  double latency_ewma(int replica) const;

  /// Record a completed service: updates the EWMA, feeds the breaker, and
  /// re-evaluates suspicion (healthy <-> suspect) against the fleet
  /// baseline.
  void observe_success(int replica, double now, double service_seconds);
  /// Record a failed service: feeds the breaker only.
  void observe_failure(int replica, double now);

  /// Transition `replica` to dead (crash detected at `now`).
  void mark_dead(int replica, double now, const std::string& reason);
  /// Whether the respawn budget still has restarts left.
  bool can_respawn(int replica) const;
  /// Consume one restart from the budget and return the backoff delay to
  /// wait before the attempt (requires can_respawn).
  double next_respawn_delay(int replica);
  int restarts_used(int replica) const;
  /// Transition `replica` back to healthy after a successful restart;
  /// resets its EWMA and breaker (a fresh process has no history).
  void mark_respawned(int replica, double now);
  /// Mark a replica permanently lost (respawn budget spent); stays dead and
  /// logs the terminal transition.
  void mark_lost(int replica, double now, const std::string& reason);

  /// Whether a suspect replica is due a traffic probe at `now`.
  bool probe_due(int replica, double now) const;
  void note_probe(int replica, double now);

  const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }

 private:
  struct Entry {
    ReplicaState state = ReplicaState::kHealthy;
    CircuitBreaker breaker;
    double ewma = 0.0;
    int samples = 0;
    int restarts_used = 0;
    double last_probe = -1.0e300;
  };

  void transition(int replica, double now, ReplicaState to,
                  const std::string& reason);
  void reevaluate_suspicion(int replica, double now);
  Entry& entry(int replica);
  const Entry& entry(int replica) const;

  std::vector<Entry> entries_;
  std::vector<HealthTransition> transitions_;
  SeededBackoff respawn_;
};

}  // namespace dcn::serve
