// The three workloads and the traced per-layer profiles.
//
// A workload function runs setup, calls Run::begin_timed(), runs its
// timed phase, calls Run::end_timed(), checks its outputs and reports its
// end-to-end metrics. In a traced run it also reports the per-layer
// metrics of the layers it exercises. The profile_* functions cover the
// layers a workload does not exercise, with a compact run of the same
// code path after the timed phase, so every traced run reports every
// per-layer metric.
#pragma once

#include "bench.hpp"

namespace hostbench {

void run_online(Run& run);
void run_scan(Run& run);
void run_train(Run& run);

/// Compact scan: a 512 px watershed, one pass per precision.
void profile_scan(Run& run);
/// Compact train: one epoch of the train recipe, then the layer replays.
void profile_train(Run& run);
/// Graph-node replays at b1 and b32, module-vs-executor ratios, simgpu
/// counts and the two-clock per-node table.
void profile_graph(Run& run);

}  // namespace hostbench
