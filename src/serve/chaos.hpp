// Seeded chaos schedules for the serve fleet.
//
// A ChaosSchedule is the acceptance-harness input: a declarative list of
// fleet-level fault campaigns — crash storms (correlated multi-replica
// deaths at one instant) and straggler waves (a set of replicas slowed by a
// factor over a window) — that materializes into one simgpu::FaultPlan per
// replica. Victims are either named explicitly or drawn without replacement
// from an RNG salted per campaign (mix_seed(seed, campaign index)), so the
// same (config, replica count) always produces the same per-replica plans:
// chaos runs replay byte-for-byte, which is what lets the CI gate pin
// goodput and recovery-time numbers.
//
// Overload bursts — the third chaos dimension — need no machinery here:
// TrafficConfig's burst/diurnal modulation already shapes the arrival
// trace; a chaos scenario simply pairs an aggressive trace with this
// schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simgpu/faults.hpp"

namespace dcn::serve {

/// Correlated crash: `kills` replicas die at `time`. Permanent storms keep
/// re-killing on every restart attempt (the replica is lost once its
/// respawn budget is spent); transient storms let one restart succeed.
struct CrashStorm {
  double time = 0.0;
  int kills = 1;
  bool permanent = true;
  /// Explicit victim replica indices; empty = drawn from the seeded RNG.
  std::vector<int> victims;
};

/// Straggler wave: `count` replicas serve `factor`x slower over
/// [onset, onset + duration).
struct StragglerWave {
  double onset = 0.0;
  double duration = 0.0;
  int count = 1;
  double factor = 4.0;
  std::vector<int> victims;
};

struct ChaosConfig {
  std::uint64_t seed = 0;
  std::vector<CrashStorm> storms;
  std::vector<StragglerWave> waves;

  bool empty() const { return storms.empty() && waves.empty(); }

  /// Parse a CLI spec: semicolon-separated campaigns of the form
  ///   crash:at=<t>[,kills=<n>][,perm=<0|1>][,victims=<i+j+...>]
  ///   straggle:at=<t>,dur=<t>[,count=<n>][,factor=<f>][,victims=<i+j+...>]
  /// where kills, count and victims are whole numbers >= 0.
  /// Example: "crash:at=2,kills=2;straggle:at=4,dur=2,count=3,factor=6"
  /// Throws ConfigError on malformed specs.
  static ChaosConfig parse(const std::string& spec, std::uint64_t seed = 0);
};

/// Materialize the schedule into one fleet-level FaultPlan per replica
/// (plan seed = mix_seed(config.seed, replica)). Validates victim indices
/// and kill/count sizes against `replicas`; throws ConfigError when a
/// campaign cannot be cast. Deterministic: same (config, replicas), same
/// plans.
std::vector<simgpu::FaultPlan> materialize_chaos(const ChaosConfig& config,
                                                 int replicas);

}  // namespace dcn::serve
