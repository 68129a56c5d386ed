#include "serve/backend.hpp"

#include <utility>

#include "core/rng.hpp"

namespace dcn::serve {

WholeModelBackend::WholeModelBackend(const graph::Graph& graph,
                                     ios::Schedule schedule,
                                     const simgpu::DeviceSpec& spec,
                                     const ios::ResilientOptions& resilient,
                                     simgpu::Precision precision,
                                     profiler::Recorder* recorder)
    : precision_(precision) {
  device_ = std::make_unique<simgpu::Device>(spec, recorder);
  session_ = std::make_unique<ios::ResilientSession>(
      graph, std::move(schedule), *device_, resilient, precision);
  session_->initialize();
  // The one-time library load + weight upload happen *before* the trace
  // timeline: serving starts from a warm fleet, as documented. Without
  // this reset the init cost lands at t = 0 and every early request
  // queues behind it — invisible under a streamed trace, but it
  // dominates an offline drain (the scan cascade's regime). Respawns
  // still pay re-initialization mid-timeline, where it belongs.
  device_->reset_clocks();
}

void WholeModelBackend::arm_faults(const simgpu::FaultPlan& base,
                                   std::uint64_t salt) {
  if (base.empty()) return;
  simgpu::FaultPlan plan = base;
  plan.seed = mix_seed(plan.seed, salt);
  device_->set_fault_plan(plan);
}

void WholeModelBackend::reseed_backoff(std::uint64_t salt) {
  session_->reseed_backoff(mix_seed(ios::kBackoffSeed, salt));
}

BackendOutcome WholeModelBackend::serve_batch(double start,
                                              std::int64_t batch) {
  // Sync the replica's private timeline to the dispatch instant, then run;
  // the host-clock delta is the raw service time, recovery included.
  device_->advance_host(start - device_->host_time());
  const auto result = session_->try_run(batch);
  BackendOutcome out;
  out.ok = result.has_value();
  out.end = device_->host_time();
  out.ready = out.end;  // one device, busy for the whole service
  return out;
}

double WholeModelBackend::restart(double now) {
  // Fresh device (reset clocks synced to the fleet timeline), full
  // re-initialization; the replica rejoins once the library load + weight
  // upload costs are paid.
  device_->reset_clocks();
  device_->advance_host(now);
  device_->set_fault_plan(simgpu::FaultPlan{});
  session_->hard_restart();
  return device_->host_time();
}

}  // namespace dcn::serve
