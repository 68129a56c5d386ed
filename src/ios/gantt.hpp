// ASCII Gantt rendering of a schedule on the simulated device.
//
// Visualizes what the DP decided: one row per concurrent stream, one column
// band per stage, each kernel drawn proportionally to its modeled duration.
// The schedule_explorer example prints these; tests assert structural
// properties (row count = max concurrency, total width tracks latency).
#pragma once

#include <string>

#include "ios/schedule.hpp"
#include "simgpu/spec.hpp"

namespace dcn::ios {

/// Render `schedule` at batch 1 as an ASCII timeline about 100 characters
/// wide. Each stream row shows kernels as [name---] blocks scaled to
/// modeled solo durations; stage boundaries are marked with '|'.
std::string render_gantt(const graph::Graph& graph,
                         const simgpu::DeviceSpec& spec,
                         const Schedule& schedule);

}  // namespace dcn::ios
