// Graph optimizer: one forward sweep over the inference DAG.
//
// The sweep visits nodes in insertion (topological) order and applies two
// rewrites:
//  - a Flatten whose consumers all read only element counts (Concat,
//    Linear, FusedLinearReLU, another Flatten) is dropped, and those
//    consumers read its producer instead — the IR is contiguous CHW
//    row-major, so such a Flatten is a kernel launch and a full activation
//    round-trip for a no-op;
//  - a Conv2d / Linear whose only consumer is a ReLU becomes one
//    FusedConvReLU / FusedLinearReLU node with the compute op's name
//    (weights bind by name) and position; the ReLU's consumers read it.
// Every other node is copied.
//
// Why this matters: the tensor engine already fuses bias+ReLU into GEMM
// epilogue stores, but the graph handed to the IOS scheduler still carried
// one node per op — so the cost model priced a kernel launch and a DRAM
// round-trip of the pre-activation tensor that the engine never performs.
// Optimizing *before* IOS DP makes schedules, simulated costs, and
// schedule-cache keys all see the fused reality.
//
// The result is a pure function of the input graph, and optimizing it again
// changes nothing.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace dcn::graph {

/// Optimize `graph`; the input is untouched. The result is shape-validated
/// before it is returned.
Graph optimize_graph(const Graph& graph);

/// Scheduled kernel launches of a graph: its device ops (what one inference
/// costs in launches — the paper's Fig. 7 x-axis).
std::size_t device_op_count(const Graph& graph);

}  // namespace dcn::graph
