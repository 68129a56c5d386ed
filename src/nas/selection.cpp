#include "nas/selection.hpp"

#include <algorithm>

#include "core/csv.hpp"
#include "core/logging.hpp"
#include "core/table.hpp"

namespace dcn::nas {

std::optional<Trial> select_constrained(const TrialDatabase& database,
                                        double accuracy_threshold) {
  std::optional<Trial> best;
  for (const Trial& t : database.trials()) {
    if (t.metrics.average_precision <= accuracy_threshold) continue;
    if (!best || t.metrics.throughput > best->metrics.throughput) best = t;
  }
  return best;
}

std::vector<Trial> pareto_front(const TrialDatabase& database) {
  std::vector<Trial> front;
  for (const Trial& candidate : database.trials()) {
    bool dominated = false;
    for (const Trial& other : database.trials()) {
      const bool geq =
          other.metrics.average_precision >=
              candidate.metrics.average_precision &&
          other.metrics.throughput >= candidate.metrics.throughput;
      const bool gt =
          other.metrics.average_precision >
              candidate.metrics.average_precision ||
          other.metrics.throughput > candidate.metrics.throughput;
      if (geq && gt) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(candidate);
  }
  std::sort(front.begin(), front.end(), [](const Trial& a, const Trial& b) {
    return a.metrics.average_precision > b.metrics.average_precision;
  });
  return front;
}

std::vector<PrecisionCandidate> expand_precisions(
    const TrialDatabase& database, const QuantizeEvaluator& quantize) {
  std::vector<PrecisionCandidate> candidates;
  candidates.reserve(2 * database.size());
  for (const Trial& trial : database.trials()) {
    if (!trial.ok()) continue;
    PrecisionCandidate fp32;
    fp32.trial = trial;
    fp32.precision = simgpu::Precision::kFp32;
    fp32.metrics = trial.metrics;
    candidates.push_back(std::move(fp32));
    try {
      PrecisionCandidate int8;
      int8.trial = trial;
      int8.precision = simgpu::Precision::kInt8;
      int8.metrics = quantize(trial);
      candidates.push_back(std::move(int8));
    } catch (const std::exception& error) {
      // A failed quantization costs the int8 option, not the trial.
      DCN_LOG_WARN << "int8 expansion of trial " << trial.index
                   << " failed: " << error.what();
    }
  }
  return candidates;
}

std::optional<PrecisionCandidate> select_constrained_precision(
    const std::vector<PrecisionCandidate>& candidates,
    double accuracy_threshold) {
  std::optional<PrecisionCandidate> best;
  for (const PrecisionCandidate& c : candidates) {
    if (c.metrics.average_precision <= accuracy_threshold) continue;
    if (!best || c.metrics.throughput > best->metrics.throughput) best = c;
  }
  return best;
}

std::string precision_selection_csv(
    const std::vector<PrecisionCandidate>& candidates,
    const std::optional<PrecisionCandidate>& selected) {
  CsvWriter csv({"trial", "precision", "average_precision",
                 "optimized_latency_ms", "throughput_img_s", "selected"});
  for (const PrecisionCandidate& c : candidates) {
    const bool chosen = selected && selected->trial.index == c.trial.index &&
                        selected->precision == c.precision;
    csv.add_row({std::to_string(c.trial.index),
                 simgpu::precision_name(c.precision),
                 format_double(c.metrics.average_precision, 4),
                 format_double(c.metrics.optimized_latency * 1e3, 4),
                 format_double(c.metrics.throughput, 1),
                 chosen ? "1" : "0"});
  }
  return csv.to_string();
}

}  // namespace dcn::nas
