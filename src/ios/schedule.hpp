// Execution schedules (IOS terminology, Ding et al. MLSys'21).
//
// A Schedule is a sequence of Stages; a Stage is a set of Groups that run
// concurrently on separate streams; a Group is a chain of operators that
// run back-to-back on one stream. Stages synchronize before the next stage
// starts. The sequential baseline (one operator per stage) models eager
// framework execution; IOS emits the optimized partition.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dcn::ios {

struct Group {
  std::vector<graph::OpId> ops;  // executed in order on one stream

  bool operator==(const Group&) const = default;
};

struct Stage {
  std::vector<Group> groups;  // executed concurrently

  bool operator==(const Stage&) const = default;
};

struct Schedule {
  std::vector<Stage> stages;

  bool operator==(const Schedule&) const = default;

  std::size_t num_stages() const { return stages.size(); }
  std::size_t num_kernels() const;
  std::size_t max_concurrency() const;  // widest stage

  /// Human-readable dump using op names from `graph`.
  std::string to_string(const graph::Graph& graph) const;
};

/// Throws dcn::Error unless the schedule is valid for `graph`: every device
/// operator appears exactly once, and every operator's producers appear in
/// an earlier stage or earlier in the same group.
void validate_schedule(const graph::Graph& graph, const Schedule& schedule);

/// The eager baseline: every device operator is its own single-group stage,
/// in topological (id) order.
Schedule sequential_schedule(const graph::Graph& graph);

}  // namespace dcn::ios
