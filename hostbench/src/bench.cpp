#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/error.hpp"

namespace hostbench {

double now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Tracer ----------------------------------------------------------------

std::int64_t Tracer::begin(std::string layer, std::string name,
                           std::int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op >= 0 || span.parent < 0
                ? op
                : spans_[static_cast<std::size_t>(span.parent)].op;
  span.layer = std::move(layer);
  span.name = std::move(name);
  span.start = now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  DCN_CHECK(!open_.empty() && open_.back() == id)
      << "span " << id << " closed out of order";
  spans_[static_cast<std::size_t>(id)].end = now();
  open_.pop_back();
}

std::vector<const Span*> Tracer::named(const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(&span);
  }
  return out;
}

bool Tracer::descends(const Span& span, std::int64_t ancestor) const {
  for (std::int64_t p = span.parent; p >= 0;
       p = spans_[static_cast<std::size_t>(p)].parent) {
    if (p == ancestor) return true;
  }
  return false;
}

std::pair<double, std::int64_t> Tracer::total(const std::string& name,
                                              std::int64_t within) const {
  double seconds = 0.0;
  std::int64_t count = 0;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    if (within >= 0 && !descends(span, within)) continue;
    seconds += span.seconds();
    ++count;
  }
  return {seconds, count};
}

double Tracer::self_seconds(const Span& span) const {
  // Union of the children's intervals, clipped to the parent.
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans_) {
    if (s.parent == span.id) {
      children.emplace_back(std::max(s.start, span.start),
                            std::min(s.end, span.end));
    }
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [lo, hi] : children) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return span.seconds() - covered;
}

// --- TracedModule ----------------------------------------------------------

TracedModule::TracedModule(dcn::Module& inner, Tracer& tracer,
                           std::string layer, std::string name)
    : inner_(inner),
      tracer_(tracer),
      layer_(std::move(layer)),
      name_(std::move(name)) {
  Module::set_training(inner_.is_training());
}

dcn::Tensor TracedModule::forward(const dcn::Tensor& input) {
  if (is_training()) {
    step_starts_.push_back(now());
    const auto step = static_cast<std::int64_t>(step_starts_.size()) - 1;
    ScopedSpan span(tracer_, layer_, name_ + ".forward", step);
    return inner_.forward(input);
  }
  ScopedSpan span(tracer_, layer_, name_ + ".infer");
  return inner_.forward(input);
}

dcn::Tensor TracedModule::backward(const dcn::Tensor& grad_output) {
  const auto step = static_cast<std::int64_t>(step_starts_.size()) - 1;
  ScopedSpan span(tracer_, layer_, name_ + ".backward", step);
  return inner_.backward(grad_output);
}

void TracedModule::set_training(bool training) {
  if (!training && is_training()) eval_start_ = now();
  Module::set_training(training);
  inner_.set_training(training);
}

// --- Results ---------------------------------------------------------------

void Results::add(Kind kind, std::string name, double value, std::string unit,
                  std::string clock, std::int64_t samples) {
  Metric m;
  m.kind = kind;
  m.name = std::move(name);
  m.value = value;
  m.unit = std::move(unit);
  m.clock = std::move(clock);
  m.samples = samples;
  if (!std::isfinite(value)) {
    failures_.push_back("metric " + m.name + " is not finite");
  }
  metrics_.push_back(std::move(m));
}

bool Results::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failures_.push_back(what);
    std::fprintf(stderr, "hostbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Results::count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

// --- Run -------------------------------------------------------------------

Run::Run(std::string workload_, std::uint64_t seed_, double seconds_,
         bool trace, std::string inject_)
    : workload(std::move(workload_)),
      seed(seed_),
      seconds(seconds_),
      inject(std::move(inject_)),
      tracer(trace) {}

void Run::begin_timed() {
  tracer.end(setup_span);
  setup_seconds = now();
  tuner_at_setup = dcn::kernels::TileTuner::global().stats();
  results.add(Kind::kEndToEnd, "setup_s", setup_seconds, "s", "host", 1);
}

void Run::end_timed() {
  const auto tuned = dcn::kernels::TileTuner::global().stats().tuned;
  results.check(tuned == tuner_at_setup.tuned,
                "the tile tuner tuned " +
                    std::to_string(tuned - tuner_at_setup.tuned) +
                    " shape class(es) during the timed phase; warm-up "
                    "must cover every class");
}

void warm_up(Run& run, const std::function<void()>& body) {
  {
    ScopedSpan cold(run.tracer, "tensor", "tensor.warmup.cold");
    body();
  }
  if (!run.traced()) return;
  ScopedSpan warm(run.tracer, "tensor", "tensor.warmup.warm");
  body();
}

void report_phase(Run& run, const std::string& precision,
                  const std::vector<double>& op_seconds, double items_per_s) {
  const auto n = static_cast<std::int64_t>(op_seconds.size());
  run.results.add(Kind::kEndToEnd, precision + "_items_per_s", items_per_s,
                  "items/s", "host", n);
  run.results.add(Kind::kEndToEnd, precision + "_p50_ms",
                  median(op_seconds) * 1e3, "ms", "host", n);
  // Printed, not gated: few phases have ten samples beyond their p95.
  std::printf("info  %-40s %.6g ms (clock host, %lld samples)\n",
              (precision + "_p95_ms").c_str(),
              percentile(op_seconds, 0.95) * 1e3, static_cast<long long>(n));
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace hostbench
