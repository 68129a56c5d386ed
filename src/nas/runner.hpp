// Multi-trial NAS runner (the Retiarii loop of Fig. 5), fault-tolerant.
//
// The runner drives: strategy proposes a coordinate -> the evaluator
// trains/scores it (accuracy) -> IOS times its optimized schedule on the
// simulated device (efficiency) -> the trial lands in the database. The
// evaluator is a callback, mirroring NNI's FunctionalEvaluator, so tests
// can substitute cheap functional evaluators for real training.
//
// Failure semantics mirror production NAS systems (NNI marks trials FAILED
// and keeps searching): a throwing evaluator or a faulted device costs one
// trial, not the campaign. Retryable faults get bounded re-attempts; every
// outcome lands in the database with a TrialStatus; and the database is
// checkpointed to CSV after every trial so an interrupted campaign resumes
// from the last checkpoint instead of restarting.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "ios/executor.hpp"
#include "nas/strategy.hpp"
#include "nas/trial.hpp"
#include "simgpu/faults.hpp"
#include "simgpu/spec.hpp"

namespace dcn::nas {

/// FunctionalEvaluator: score one materialized architecture. Returns the
/// prediction accuracy a(n) in [0, 1]. May throw; the runner records the
/// failure and continues.
using Evaluator = std::function<double(const detect::SppNetConfig&)>;

struct RunnerConfig {
  int max_trials = 10;
  /// Input resolution used to build inference graphs for timing.
  std::int64_t input_size = 100;
  /// Batch size at which efficiency is measured (Table 2 uses 1).
  std::int64_t latency_batch = 1;
  /// Kernel precision the efficiency measurement runs at. The IOS schedule
  /// is optimized for the same precision (int8 kernels have a different
  /// compute/memory balance, so the best partition can differ).
  simgpu::Precision precision = simgpu::Precision::kFp32;
  simgpu::DeviceSpec device = simgpu::a5500_spec();
  bool verbose = true;

  /// Worker threads evaluating trials concurrently (1 = the classic serial
  /// loop, bit-for-bit). The parallel runner keeps a determinism contract:
  /// points are *proposed* in trial order with pipeline depth `jobs`, and
  /// every commit — strategy.report, logging, database.add, checkpoint —
  /// happens strictly in trial order on the caller's thread. Fault-injector
  /// seeds are salted by (trial index, attempt), never by worker identity,
  /// so for strategies whose next() does not depend on report() (random,
  /// grid) the final database CSV is byte-identical at any `jobs`.
  /// Feedback-driven strategies (evolution) see up to `jobs - 1` proposals
  /// outrun their reports and may explore a different — equally valid —
  /// trajectory. The evaluator must be thread-safe when jobs > 1.
  int jobs = 1;

  // --- Fault tolerance ----------------------------------------------------

  /// Fault plan applied to the profiling devices (empty = no injection).
  /// Each trial derives an independent injector seed from plan.seed and the
  /// trial index, so campaigns are reproducible trial-by-trial.
  simgpu::FaultPlan faults;
  /// Session-level retry/backoff policy used while profiling under faults.
  ios::ResilientOptions resilient;
  /// Extra whole-trial attempts after a retryable failure escapes the
  /// session-level retries (0 = record the failure immediately).
  int trial_retries = 1;

  // --- Checkpointing ------------------------------------------------------

  /// Write the database CSV here after every committed trial (and once at
  /// the end). Empty disables. Writes are atomic (temp file + rename).
  std::string checkpoint_path;
};

/// Run up to config.max_trials trials; returns the populated database.
/// Per-trial failures are recorded (TrialStatus::kFailed) instead of
/// aborting the campaign.
TrialDatabase run_multi_trial(ExplorationStrategy& strategy,
                              const Evaluator& evaluator,
                              const RunnerConfig& config);

/// Resuming variant: `resume_from` holds the trials a previous (interrupted)
/// campaign already completed, e.g. load_checkpoint(config.checkpoint_path).
/// The runner fast-forwards the strategy through them — verifying each
/// recorded point against what the strategy proposes, and replaying the
/// recorded fitness feedback — then continues with live trials. With the
/// same seeds, the resumed campaign's final database matches an
/// uninterrupted run.
TrialDatabase run_multi_trial(ExplorationStrategy& strategy,
                              const Evaluator& evaluator,
                              const RunnerConfig& config,
                              const TrialDatabase& resume_from);

/// Compute the efficiency metrics of one architecture (no training):
/// sequential and IOS-optimized latency plus throughput on the device.
/// `trial_index` and `attempt` (1-based) salt the per-trial fault-injector
/// seed when config.faults is non-empty, so each trial — and each retry of
/// it — draws an independent but reproducible fault schedule.
TrialMetrics profile_architecture(const detect::SppNetConfig& model,
                                  const RunnerConfig& config,
                                  int trial_index = 0, int attempt = 1);

/// Load a checkpoint CSV written by run_multi_trial (empty database when
/// the file does not exist, so cold starts and resumes share one call).
TrialDatabase load_checkpoint(const std::string& path);

}  // namespace dcn::nas
