#include "profiler/report.hpp"

#include <algorithm>
#include <sstream>

#include "core/table.hpp"
#include "profiler/counters.hpp"

namespace dcn::profiler {

std::vector<ApiUsageRow> api_usage(const Recorder& recorder) {
  std::map<ApiKind, ApiUsageRow> rows;
  double total = 0.0;
  for (const ApiSpan& span : recorder.api_spans()) {
    ApiUsageRow& row = rows[span.kind];
    row.kind = span.kind;
    ++row.calls;
    row.total_seconds += span.duration;
    total += span.duration;
  }
  std::vector<ApiUsageRow> out;
  out.reserve(rows.size());
  for (auto& [kind, row] : rows) {
    row.share = total > 0.0 ? row.total_seconds / total : 0.0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const ApiUsageRow& a, const ApiUsageRow& b) {
              return a.total_seconds > b.total_seconds;
            });
  return out;
}

std::vector<KernelUsageRow> kernel_usage(const Recorder& recorder) {
  std::map<KernelCategory, KernelUsageRow> rows;
  double total = 0.0;
  for (const KernelSpan& span : recorder.kernel_spans()) {
    KernelUsageRow& row = rows[span.category];
    row.category = span.category;
    ++row.launches;
    row.total_seconds += span.duration;
    total += span.duration;
  }
  std::vector<KernelUsageRow> out;
  out.reserve(rows.size());
  for (auto& [category, row] : rows) {
    row.share = total > 0.0 ? row.total_seconds / total : 0.0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const KernelUsageRow& a, const KernelUsageRow& b) {
              return a.total_seconds > b.total_seconds;
            });
  return out;
}

namespace {

MemopSummary summarize(const std::vector<MemopSpan>& spans,
                       const MemopKind* filter) {
  MemopSummary summary;
  for (const MemopSpan& span : spans) {
    if (filter != nullptr && span.kind != *filter) continue;
    ++summary.count;
    summary.total_bytes += span.bytes;
    summary.total_seconds += span.duration;
  }
  summary.mean_seconds =
      summary.count > 0 ? summary.total_seconds / summary.count : 0.0;
  return summary;
}

}  // namespace

MemopSummary memop_summary(const Recorder& recorder) {
  return summarize(recorder.memop_spans(), nullptr);
}

MemopSummary memop_summary(const Recorder& recorder, MemopKind kind) {
  return summarize(recorder.memop_spans(), &kind);
}

double api_share(const Recorder& recorder, ApiKind kind) {
  for (const ApiUsageRow& row : api_usage(recorder)) {
    if (row.kind == kind) return row.share;
  }
  return 0.0;
}

double kernel_share(const Recorder& recorder, KernelCategory category) {
  for (const KernelUsageRow& row : kernel_usage(recorder)) {
    if (row.category == category) return row.share;
  }
  return 0.0;
}

std::string render_report(const Recorder& recorder) {
  std::ostringstream os;

  os << "CUDA API Statistics:\n";
  TextTable api_table({"Time (%)", "Total Time (us)", "Calls", "Name"});
  for (const ApiUsageRow& row : api_usage(recorder)) {
    api_table.add_row({format_percent(row.share),
                       format_double(row.total_seconds * 1e6, 1),
                       std::to_string(row.calls), api_kind_name(row.kind)});
  }
  os << api_table.to_string() << '\n';

  os << "CUDA Kernel Statistics:\n";
  TextTable kernel_table(
      {"Time (%)", "Total Time (us)", "Launches", "Category"});
  for (const KernelUsageRow& row : kernel_usage(recorder)) {
    kernel_table.add_row({format_percent(row.share),
                          format_double(row.total_seconds * 1e6, 1),
                          std::to_string(row.launches),
                          kernel_category_name(row.category)});
  }
  os << kernel_table.to_string() << '\n';

  os << "CUDA Memory Operation Statistics:\n";
  TextTable memop_table(
      {"Kind", "Count", "Total Bytes", "Total Time (us)", "Avg Time (ns)"});
  for (MemopKind kind :
       {MemopKind::kH2D, MemopKind::kD2H, MemopKind::kDeviceToDevice}) {
    const MemopSummary s = memop_summary(recorder, kind);
    if (s.count == 0) continue;
    memop_table.add_row({memop_kind_name(kind), std::to_string(s.count),
                         std::to_string(s.total_bytes),
                         format_double(s.total_seconds * 1e6, 1),
                         format_double(s.mean_seconds * 1e9, 0)});
  }
  os << memop_table.to_string();

  // Fault-injection view: real nsys reports have no such section, but a
  // faulted run must show its injected faults and recovery actions next to
  // the API statistics they perturbed.
  if (!recorder.fault_spans().empty()) {
    os << "\nFault & Recovery Events:\n";
    TextTable fault_table({"Time (us)", "Duration (us)", "Event", "Detail"});
    for (const FaultSpan& span : recorder.fault_spans()) {
      fault_table.add_row({format_double(span.start * 1e6, 1),
                           format_double(span.duration * 1e6, 1), span.name,
                           span.detail});
    }
    os << fault_table.to_string();
  }

  // Sampled counter tracks (serving queue depth, batch sizes): summarized
  // here; the chrome trace carries the full time series.
  if (!recorder.counter_samples().empty()) {
    std::map<std::string, std::vector<std::int64_t>> by_name;
    for (const CounterSample& sample : recorder.counter_samples()) {
      by_name[sample.name].push_back(sample.value);
    }
    os << "\nSampled Counters:\n";
    TextTable sample_table({"Counter", "Samples", "Min", "Max", "Mean"});
    for (const auto& [name, values] : by_name) {
      std::int64_t lo = values.front(), hi = values.front(), sum = 0;
      for (std::int64_t v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
      }
      sample_table.add_row(
          {name, std::to_string(values.size()), std::to_string(lo),
           std::to_string(hi),
           format_double(static_cast<double>(sum) /
                             static_cast<double>(values.size()),
                         2)});
    }
    os << sample_table.to_string();
  }

  // Fleet health markers (replica state transitions, hedge launches, shed
  // decisions): the chrome trace carries each marker as an instant event;
  // the text report lists the timeline so a faulted serving run reads as a
  // story — death, suspicion, respawn, recovery — next to the API stats.
  if (!recorder.instant_events().empty()) {
    os << "\nFleet Health Events:\n";
    TextTable fleet_table({"Time (us)", "Event", "Detail"});
    for (const InstantEvent& event : recorder.instant_events()) {
      fleet_table.add_row({format_double(event.time * 1e6, 1), event.name,
                           event.detail});
    }
    os << fleet_table.to_string();
  }

  // Process-wide counters (tile-tuner cache hits/misses, serving totals):
  // not an nsys view, but campaign-level reports need the amortization
  // numbers next to the timing they explain.
  const auto counters = counter_snapshot();
  if (!counters.empty()) {
    os << "\nCounters:\n";
    TextTable counter_table({"Counter", "Value"});
    for (const auto& [name, value] : counters) {
      counter_table.add_row({name, std::to_string(value)});
    }
    os << counter_table.to_string();
  }
  return os.str();
}

}  // namespace dcn::profiler
