#include "serve/health.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace dcn::serve {
namespace {

// Circuit breaker.
/// Consecutive failures that trip the breaker open.
constexpr int kFailureThreshold = 3;
/// Cool-down before an open breaker half-opens (virtual seconds).
constexpr double kOpenSeconds = 0.050;
/// Consecutive half-open successes required to close again.
constexpr int kHalfOpenSuccesses = 2;

// Health monitor.
/// EWMA smoothing for per-replica service latency.
constexpr double kEwmaAlpha = 0.3;
/// A replica is suspect when its EWMA exceeds this many times the fleet's
/// fastest EWMA (straggler detection).
constexpr double kSuspectFactor = 3.0;
/// Samples a replica needs before it can be suspected or be the baseline.
constexpr int kMinSamples = 3;
/// How often a suspect replica is probed with real traffic so its EWMA can
/// decay back (virtual seconds).
constexpr double kProbeInterval = 0.050;
/// Respawn budget per replica; once spent the replica is permanently lost.
constexpr int kMaxRestarts = 3;
/// Backoff between respawn attempts: 5, 10, 20 ms, ... capped at 100 ms.
/// Jitter-free, so the delays draw no random numbers.
constexpr RetryPolicy kRespawnBackoff{.max_attempts = 1,
                                      .base_backoff = 5.0e-3,
                                      .multiplier = 2.0,
                                      .max_backoff = 0.1,
                                      .jitter = 0.0};

}  // namespace

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

BreakerState CircuitBreaker::state(double now) const {
  if (stored_ == BreakerState::kClosed) return BreakerState::kClosed;
  // Half-open is derived, not stored: an open breaker past its cool-down
  // admits trial traffic without needing a timer event.
  return now >= opened_at_ + kOpenSeconds ? BreakerState::kHalfOpen
                                          : BreakerState::kOpen;
}

double CircuitBreaker::allows_at(double now) const {
  if (allows(now)) return now;
  return opened_at_ + kOpenSeconds;
}

void CircuitBreaker::record_success(double now) {
  switch (state(now)) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++half_open_successes_ >= kHalfOpenSuccesses) {
        stored_ = BreakerState::kClosed;
        consecutive_failures_ = 0;
        half_open_successes_ = 0;
      }
      break;
    case BreakerState::kOpen:
      // A success while nominally open (e.g. a hedge completing on a
      // replica whose breaker tripped mid-flight) does not close it.
      break;
  }
}

void CircuitBreaker::record_failure(double now) {
  switch (state(now)) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= kFailureThreshold) {
        stored_ = BreakerState::kOpen;
        opened_at_ = now;
        half_open_successes_ = 0;
        ++opens_;
      }
      break;
    case BreakerState::kHalfOpen:
      // The trial request failed: re-open and restart the cool-down.
      stored_ = BreakerState::kOpen;
      opened_at_ = now;
      half_open_successes_ = 0;
      ++opens_;
      break;
    case BreakerState::kOpen:
      break;
  }
}

const char* replica_state_name(ReplicaState state) {
  switch (state) {
    case ReplicaState::kHealthy:
      return "healthy";
    case ReplicaState::kSuspect:
      return "suspect";
    case ReplicaState::kDead:
      return "dead";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(int replicas) : respawn_(kRespawnBackoff) {
  if (replicas < 1) {
    throw ConfigError("HealthMonitor: replicas must be >= 1, got " +
                      std::to_string(replicas));
  }
  entries_.resize(static_cast<std::size_t>(replicas));
}

HealthMonitor::Entry& HealthMonitor::entry(int replica) {
  DCN_CHECK(replica >= 0 &&
            replica < static_cast<int>(entries_.size()))
      << "replica " << replica << " out of range";
  return entries_[static_cast<std::size_t>(replica)];
}

const HealthMonitor::Entry& HealthMonitor::entry(int replica) const {
  DCN_CHECK(replica >= 0 &&
            replica < static_cast<int>(entries_.size()))
      << "replica " << replica << " out of range";
  return entries_[static_cast<std::size_t>(replica)];
}

ReplicaState HealthMonitor::state(int replica) const {
  return entry(replica).state;
}

int HealthMonitor::healthy_count() const {
  return static_cast<int>(std::count_if(
      entries_.begin(), entries_.end(), [](const Entry& e) {
        return e.state == ReplicaState::kHealthy;
      }));
}

int HealthMonitor::suspect_count() const {
  return static_cast<int>(std::count_if(
      entries_.begin(), entries_.end(), [](const Entry& e) {
        return e.state == ReplicaState::kSuspect;
      }));
}

int HealthMonitor::dead_count() const {
  return static_cast<int>(std::count_if(
      entries_.begin(), entries_.end(),
      [](const Entry& e) { return e.state == ReplicaState::kDead; }));
}

CircuitBreaker& HealthMonitor::breaker(int replica) {
  return entry(replica).breaker;
}

const CircuitBreaker& HealthMonitor::breaker(int replica) const {
  return entry(replica).breaker;
}

double HealthMonitor::latency_ewma(int replica) const {
  return entry(replica).ewma;
}

void HealthMonitor::transition(int replica, double now, ReplicaState to,
                               const std::string& reason) {
  Entry& e = entry(replica);
  if (e.state == to) return;
  HealthTransition t;
  t.time = now;
  t.replica = replica;
  t.from = e.state;
  t.to = to;
  t.reason = reason;
  transitions_.push_back(std::move(t));
  e.state = to;
}

void HealthMonitor::reevaluate_suspicion(int replica, double now) {
  Entry& e = entry(replica);
  if (e.state == ReplicaState::kDead) return;
  if (e.samples < kMinSamples) return;
  // Fleet baseline: the fastest sufficiently-sampled live replica. With
  // fewer than two sampled replicas there is nothing to compare against.
  double min_ewma = std::numeric_limits<double>::infinity();
  int sampled = 0;
  for (const Entry& other : entries_) {
    if (other.state == ReplicaState::kDead) continue;
    if (other.samples < kMinSamples) continue;
    ++sampled;
    min_ewma = std::min(min_ewma, other.ewma);
  }
  if (sampled < 2 || min_ewma <= 0.0) return;
  const bool slow = e.ewma > kSuspectFactor * min_ewma;
  if (slow && e.state == ReplicaState::kHealthy) {
    transition(replica, now, ReplicaState::kSuspect,
               "latency ewma exceeds fleet baseline");
  } else if (!slow && e.state == ReplicaState::kSuspect) {
    transition(replica, now, ReplicaState::kHealthy,
               "latency ewma recovered to fleet baseline");
  }
}

void HealthMonitor::observe_success(int replica, double now,
                                    double service_seconds) {
  Entry& e = entry(replica);
  e.ewma = e.samples == 0
               ? service_seconds
               : kEwmaAlpha * service_seconds + (1.0 - kEwmaAlpha) * e.ewma;
  ++e.samples;
  e.breaker.record_success(now);
  reevaluate_suspicion(replica, now);
}

void HealthMonitor::observe_failure(int replica, double now) {
  entry(replica).breaker.record_failure(now);
}

void HealthMonitor::mark_dead(int replica, double now,
                              const std::string& reason) {
  transition(replica, now, ReplicaState::kDead, reason);
}

bool HealthMonitor::can_respawn(int replica) const {
  return entry(replica).restarts_used < kMaxRestarts;
}

double HealthMonitor::next_respawn_delay(int replica) {
  Entry& e = entry(replica);
  DCN_CHECK(e.restarts_used < kMaxRestarts)
      << "respawn budget spent for replica " << replica;
  ++e.restarts_used;
  return respawn_.delay(e.restarts_used);
}

int HealthMonitor::restarts_used(int replica) const {
  return entry(replica).restarts_used;
}

void HealthMonitor::mark_respawned(int replica, double now) {
  Entry& e = entry(replica);
  // A respawned replica is a fresh process: no latency history, a closed
  // breaker. The restart budget is deliberately NOT reset — it bounds the
  // total respawn work a flapping replica can consume.
  e.ewma = 0.0;
  e.samples = 0;
  e.breaker = CircuitBreaker();
  e.last_probe = -1.0e300;
  transition(replica, now, ReplicaState::kHealthy, "respawned");
}

void HealthMonitor::mark_lost(int replica, double now,
                              const std::string& reason) {
  Entry& e = entry(replica);
  if (e.state != ReplicaState::kDead) {
    transition(replica, now, ReplicaState::kDead, reason);
  } else {
    // Already dead: log the terminal give-up as its own event so the
    // timeline shows when the fleet stopped trying.
    HealthTransition t;
    t.time = now;
    t.replica = replica;
    t.from = ReplicaState::kDead;
    t.to = ReplicaState::kDead;
    t.reason = reason;
    transitions_.push_back(std::move(t));
  }
}

bool HealthMonitor::probe_due(int replica, double now) const {
  const Entry& e = entry(replica);
  return e.state == ReplicaState::kSuspect &&
         now - e.last_probe >= kProbeInterval;
}

void HealthMonitor::note_probe(int replica, double now) {
  entry(replica).last_probe = now;
}

}  // namespace dcn::serve
