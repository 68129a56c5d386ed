// Accuracy-constrained efficiency selection (§5.4).
//
// The paper converts the dual objective {max a(n), max e(n)} into
// max e(n) subject to a(n) > A. select_constrained implements exactly
// that over a trial database; pareto_front exposes the underlying
// trade-off curve for analysis benches.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "nas/trial.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::nas {

/// The most efficient trial among those with AP strictly above
/// `accuracy_threshold`; nullopt when none qualifies.
std::optional<Trial> select_constrained(const TrialDatabase& database,
                                        double accuracy_threshold);

/// Trials not dominated in the (accuracy, throughput) plane, sorted by
/// descending accuracy.
std::vector<Trial> pareto_front(const TrialDatabase& database);

// --- Precision-expanded selection ------------------------------------------
//
// Post-training quantization widens the selection space: every candidate
// architecture can be deployed at fp32 or int8, trading a small AP drop for
// higher throughput. The constrained selection then runs over (model,
// precision) pairs — the winner is the cheapest pair still meeting the AP
// constraint, which flips to int8 exactly when the quantized AP stays above
// the threshold.

/// One (trial, precision) deployment option.
struct PrecisionCandidate {
  Trial trial;  // the campaign trial (its metrics are the fp32 numbers)
  simgpu::Precision precision = simgpu::Precision::kFp32;
  /// Metrics at this precision (== trial.metrics for kFp32; re-profiled and
  /// re-scored for kInt8).
  TrialMetrics metrics;
};

/// Produces a successful trial's int8 metrics: re-profile the architecture
/// at int8 and re-score AP with the quantized model. May throw; the trial
/// then contributes only its fp32 candidate.
using QuantizeEvaluator = std::function<TrialMetrics(const Trial&)>;

/// Expand each successful trial into its fp32 candidate plus (when
/// `quantize` succeeds) its int8 candidate, in trial order (fp32 before
/// int8 per trial).
std::vector<PrecisionCandidate> expand_precisions(
    const TrialDatabase& database, const QuantizeEvaluator& quantize);

/// Highest-throughput candidate with AP strictly above the threshold
/// (first wins ties, like select_constrained); nullopt when none qualifies.
std::optional<PrecisionCandidate> select_constrained_precision(
    const std::vector<PrecisionCandidate>& candidates,
    double accuracy_threshold);

/// CSV of the expanded candidates with the chosen (model, precision) pair
/// flagged in a `selected` column.
std::string precision_selection_csv(
    const std::vector<PrecisionCandidate>& candidates,
    const std::optional<PrecisionCandidate>& selected);

}  // namespace dcn::nas
