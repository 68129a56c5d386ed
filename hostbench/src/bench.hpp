// Shared machinery of the host-clock benchmark: the process clock, the
// in-memory span tracer, the Module wrapper that traces production entry
// points, and the ledger of metrics, checks and operation counts every
// workload reports into.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.hpp"
#include "profiler/recorder.hpp"
#include "tensor/kernels/tuner.hpp"

namespace hostbench {

/// Seconds on the steady clock since the first call, which main makes
/// before anything else: time since process start.
double now();

/// One traced interval of host wall-clock time.
struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  // innermost span open when this one began
  std::int64_t op = -1;      // request, scan pass or SGD step it belongs to
  std::string layer;         // the module it times: geo, scan, detect, ...
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

/// In-memory span log, written out once at exit. A disabled tracer records
/// nothing, so untraced runs pay one branch per boundary. Spans are opened
/// and closed by the benchmark's main thread only.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; `op` < 0 inherits the enclosing span's operation id.
  std::int64_t begin(std::string layer, std::string name,
                     std::int64_t op = -1);
  void end(std::int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<const Span*> named(const std::string& name) const;
  /// Summed duration and count of the spans called `name`; `within` >= 0
  /// keeps only descendants of that span.
  std::pair<double, std::int64_t> total(const std::string& name,
                                        std::int64_t within = -1) const;
  /// Duration minus the part of it covered by the span's children.
  double self_seconds(const Span& span) const;

 private:
  bool descends(const Span& span, std::int64_t ancestor) const;

  bool enabled_;
  std::vector<Span> spans_;  // index == id
  std::vector<std::int64_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string layer, std::string name,
             std::int64_t op = -1)
      : tracer_(tracer),
        id_(tracer.begin(std::move(layer), std::move(name), op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Forwards to a wrapped module and records a span around each call:
/// `<name>.forward` / `<name>.backward` in training mode, `<name>.infer` in
/// eval mode. Production entry points that take a Module (scan_watershed,
/// train_detector) are traced this way without changing them. Tracing or
/// not, it stamps every training-mode forward (an SGD step starts there)
/// and the switch from training to eval mode: train's epoch times come
/// from those stamps.
class TracedModule : public dcn::Module {
 public:
  TracedModule(dcn::Module& inner, Tracer& tracer, std::string layer,
               std::string name);

  dcn::Tensor forward(const dcn::Tensor& input) override;
  dcn::Tensor backward(const dcn::Tensor& grad_output) override;
  std::vector<dcn::ParamRef> parameters() override {
    return inner_.parameters();
  }
  std::string name() const override { return inner_.name(); }
  void set_training(bool training) override;

  const std::vector<double>& step_starts() const { return step_starts_; }
  /// When the module last left training mode (-1 if it never did).
  double eval_start() const { return eval_start_; }

 private:
  dcn::Module& inner_;
  Tracer& tracer_;
  std::string layer_;
  std::string name_;
  std::vector<double> step_starts_;
  double eval_start_ = -1.0;
};

enum class Kind { kEndToEnd, kLayer };

struct Metric {
  Kind kind = Kind::kEndToEnd;
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  // "host" (wall clock / host counts) or "sim"
  std::int64_t samples = 0;
};

/// Everything one run reports: metrics, output checks, operation counts.
class Results {
 public:
  void add(Kind kind, std::string name, double value, std::string unit,
           std::string clock, std::int64_t samples);
  /// Records one output check; a failed check fails the run.
  bool check(bool ok, const std::string& what);
  void count(std::int64_t attempted, std::int64_t failed);

  bool ok() const { return failures_.empty() && failed_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  std::int64_t checks() const { return checks_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::int64_t checks_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// One benchmark process: its settings, tracer and results.
struct Run {
  Run(std::string workload, std::uint64_t seed, double seconds, bool trace,
      std::string inject);

  std::string workload;
  std::uint64_t seed;
  double seconds;
  /// Fault injected by the benchmark's own tests ("" in real runs).
  std::string inject;
  Tracer tracer;
  Results results;
  /// Chrome-trace capture: simgpu spans of the simulated measurement plus,
  /// at exit, the host spans on host/<layer> lanes.
  dcn::profiler::Recorder recorder;
  std::int64_t setup_span = -1;
  double setup_seconds = 0.0;
  dcn::kernels::TunerStats tuner_at_setup;

  bool traced() const { return tracer.enabled(); }
  bool injected(const std::string& fault) const { return inject == fault; }
  std::int64_t next_op() { return next_op_++; }

  /// Ends setup: records setup_s and snapshots the tile tuner.
  void begin_timed();
  /// Fails the run if the tuner tuned a shape class since begin_timed():
  /// warm-up must cover every class the timed phase uses.
  void end_timed();

 private:
  std::int64_t next_op_ = 0;
};

/// Runs `body` under a tensor.warmup.cold span; the call pays cold tile
/// tuning. Traced runs run it again under tensor.warmup.warm as the warm
/// reference: tensor.tuner.cold_s is the difference.
void warm_up(Run& run, const std::function<void()>& body);

/// Adds the end-to-end metrics of one precision phase,
/// <precision>_items_per_s and the p50 of its operation latencies, and
/// prints their p95.
void report_phase(Run& run, const std::string& precision,
                  const std::vector<double>& op_seconds, double items_per_s);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);
/// Peak resident set size of this process so far.
double peak_rss_mb();

}  // namespace hostbench
