// Deterministic, seeded fault injection for the simulated GPU.
//
// A FaultPlan describes which faults a run should experience — transient
// kernel-launch failures, memcpy corruption or PCIe slowdown, spurious
// allocation failures, and device hangs — either at deterministic points
// (the Nth eligible operation, or the first eligible operation at/after a
// virtual timestamp) or stochastically with seeded probabilities. The
// FaultInjector consumes the plan: given the same plan (including seed) and
// the same sequence of device operations, it produces the identical fault
// schedule, so fault tests and NAS campaigns stay reproducible.
//
// Mapping to real CUDA failure modes (see DESIGN.md "Fault model"):
//   kLaunchFailure    <-> cudaErrorLaunchFailure (transient, retryable)
//   kMemcpyCorruption <-> ECC/PCIe replay error surfacing on a copy
//   kMemcpySlowdown   <-> degraded PCIe link (Gen4 -> Gen1 renegotiation)
//   kAllocFailure     <-> spurious cudaErrorMemoryAllocation
//   kSyncHang         <-> device hang / Xid watchdog timeout
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace dcn::simgpu {

enum class FaultKind {
  kLaunchFailure = 0,
  kMemcpyCorruption,
  kMemcpySlowdown,
  kAllocFailure,
  kSyncHang,
  // Fleet-level faults (DESIGN.md "Fleet failure model"): consumed by the
  // serving layer's HealthMonitor rather than by the Device's per-op
  // injector, since they describe whole-replica lifecycle, not one API call.
  kReplicaDeath,  // replica crashes at after_time; max_fires != 1 means the
                  // crash re-fires on every restart attempt (permanent loss)
  kStraggler,     // sustained slowdown window [after_time, after_time + dur)
};

inline constexpr int kNumFaultKinds = 7;

const char* fault_kind_name(FaultKind kind);

/// One injection rule. Exactly one trigger should be set: `probability`
/// (per eligible operation), `at_op` (0-based index among eligible
/// operations of this kind), or `after_time` (first eligible operation at
/// or after the virtual timestamp). `max_fires` bounds total fires; an
/// `at_op` rule with max_fires > 1 keeps firing on consecutive eligible
/// operations, which models a fault that persists across retries.
struct FaultRule {
  FaultKind kind = FaultKind::kLaunchFailure;
  double probability = 0.0;
  std::int64_t at_op = -1;
  double after_time = -1.0;
  int max_fires = 1;
  /// kMemcpySlowdown / kStraggler: transfer- or service-time multiplier.
  double slowdown_factor = 4.0;
  /// kStraggler only: window length from after_time (<= 0 = open-ended).
  double duration = 0.0;
};

/// A fault the injector decided to fire.
struct InjectedFault {
  FaultKind kind = FaultKind::kLaunchFailure;
  double time = 0.0;
  /// Per-kind eligible-operation counter at fire time.
  std::int64_t op_index = 0;
  double slowdown_factor = 1.0;
  std::string detail;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  /// How long a kSyncHang stalls the device queue (virtual seconds).
  double hang_seconds = 0.050;
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }

  /// Fluent builders for the common cases.
  FaultPlan& fail_at(FaultKind kind, std::int64_t at_op, int max_fires = 1);
  FaultPlan& fail_after(FaultKind kind, double after_time, int max_fires = 1);
  FaultPlan& fail_with_probability(FaultKind kind, double probability,
                                   int max_fires = -1);
  /// Replica death at `after_time`. `max_fires = 1` is a one-shot crash (a
  /// restart succeeds); any other value keeps killing the replica on every
  /// restart attempt — -1 models a permanently lost replica.
  FaultPlan& die_after(double after_time, int max_fires = -1);
  /// Straggler window: all service within [onset, onset + duration) runs
  /// `factor` times slower (duration <= 0 = open-ended).
  FaultPlan& straggle(double onset, double duration, double factor);

  // --- Fleet-level queries (pure functions of the rule list) ---------------

  /// Earliest kReplicaDeath instant, +infinity when no death rule exists.
  double death_time() const;
  /// max_fires of the earliest death rule (0 when no death rule): how many
  /// times the crash can fire across restart attempts (-1 = unbounded).
  int death_budget() const;
  /// Combined slowdown multiplier at virtual time `now`: the largest factor
  /// among active kStraggler windows, 1.0 when none is active.
  double straggler_factor(double now) const;

  /// Parse a CLI spec: semicolon-separated rules of the form
  ///   kind:key=value[,key=value...]
  /// with kinds {launch, memcpy_corrupt, memcpy_slow, alloc, sync_hang} and
  /// keys {p, at, after, fires, factor, hang}; `at` and `fires` take whole
  /// numbers (fires = -1: unbounded), `after` a finite time >= 0 and
  /// `factor` a finite slowdown >= 1. Example:
  ///   "launch:p=0.05;sync_hang:at=2,hang=0.1;memcpy_slow:at=0,factor=8"
  /// Replica deaths and straggler windows are fleet faults with their own
  /// grammar (serve::ChaosConfig::parse); naming them here throws. Throws
  /// ConfigError on malformed specs.
  static FaultPlan parse(const std::string& spec, std::uint64_t seed = 0);
};

/// Decision engine over a FaultPlan. The device asks `check` once per
/// eligible operation; rule evaluation order and the single RNG stream make
/// the outcome a pure function of (plan, operation sequence).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Decide whether a fault of `kind` fires for the current eligible
  /// operation at virtual time `now`. Advances the per-kind operation
  /// counter either way.
  std::optional<InjectedFault> check(FaultKind kind, double now);

  const FaultPlan& plan() const { return plan_; }
  /// Every fault fired so far, in fire order.
  const std::vector<InjectedFault>& injected() const { return injected_; }
  /// Fires of one kind so far.
  int fired(FaultKind kind) const;
  int total_fired() const { return static_cast<int>(injected_.size()); }
  /// Eligible operations of one kind observed so far.
  std::int64_t ops_seen(FaultKind kind) const;

 private:
  FaultPlan plan_;
  Rng rng_;
  std::vector<int> fires_per_rule_;
  std::array<std::int64_t, kNumFaultKinds> ops_seen_{};
  std::vector<InjectedFault> injected_;
};

}  // namespace dcn::simgpu
