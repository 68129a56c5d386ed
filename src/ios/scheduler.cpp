#include "ios/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>

#include "core/error.hpp"
#include "graph/blocks.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/kernels.hpp"

namespace dcn::ios {
namespace {

using graph::OpId;
using Mask = std::uint32_t;

/// Exact DP over one operator set (a block's interior, or a whole small
/// graph for the brute-force oracle).
class SetScheduler {
 public:
  SetScheduler(const graph::Graph& graph, const simgpu::DeviceSpec& spec,
               std::vector<OpId> ops, const IosOptions& options)
      : graph_(graph), spec_(spec), ops_(std::move(ops)), options_(options) {
    static_assert(kMaxDpOps < 32, "full-set mask must fit without overflow");
    DCN_CHECK(ops_.size() <= static_cast<std::size_t>(kMaxDpOps))
        << "operator set too large for bitmask DP";
    const int n = static_cast<int>(ops_.size());
    std::unordered_map<OpId, int> local;
    for (int i = 0; i < n; ++i) local[ops_[i]] = i;
    preds_.assign(static_cast<std::size_t>(n), 0);
    succs_.assign(static_cast<std::size_t>(n), 0);
    kernels_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      kernels_.push_back(
          simgpu::make_kernel_desc(graph_, ops_[i], options_.precision));
      for (OpId in : graph_.node(ops_[i]).inputs) {
        auto it = local.find(in);
        if (it != local.end()) {
          preds_[static_cast<std::size_t>(i)] |= Mask{1} << it->second;
          succs_[static_cast<std::size_t>(it->second)] |= Mask{1} << i;
        }
      }
    }
    // n <= kMaxDpOps < 32 (checked above), so the shift never overflows;
    // the old `n == 32` special case here was unreachable dead code.
    full_ = (Mask{1} << n) - Mask{1};
  }

  /// Minimal modeled latency of the set; appends its stages to `stages`.
  double solve(std::vector<Stage>& stages) {
    memo_.clear();
    choice_.clear();
    const double best = solve_from(0);
    // Reconstruct the stage sequence.
    Mask done = 0;
    while (done != full_) {
      const Mask e = choice_.at(done);
      stages.push_back(make_stage(e));
      done |= e;
    }
    return best;
  }

 private:
  // Partition stage-set `e` into chain groups; returns false if some
  // connected component is not a simple chain.
  bool make_groups(Mask e, std::vector<std::vector<int>>& groups) const {
    groups.clear();
    Mask visited = 0;
    for (int i = 0; i < 32; ++i) {
      const Mask bit = Mask{1} << i;
      if (!(e & bit) || (visited & bit)) continue;
      // A chain head has no predecessor inside e.
      if (preds_[static_cast<std::size_t>(i)] & e) continue;
      std::vector<int> chain;
      int cur = i;
      while (true) {
        const Mask cur_bit = Mask{1} << cur;
        if (visited & cur_bit) return false;  // re-entered: not a chain
        visited |= cur_bit;
        chain.push_back(cur);
        const Mask next = succs_[static_cast<std::size_t>(cur)] & e;
        if (next == 0) break;
        if (std::popcount(next) > 1) return false;  // fork inside stage
        const int nxt = std::countr_zero(next);
        if (std::popcount(preds_[static_cast<std::size_t>(nxt)] & e) > 1) {
          return false;  // join inside stage
        }
        cur = nxt;
      }
      groups.push_back(std::move(chain));
    }
    // Every op must have been visited (ops whose in-stage predecessors form
    // a cycle would be missed — impossible in a DAG, but cheap to assert).
    return visited == e;
  }

  double stage_cost(const std::vector<std::vector<int>>& groups) const {
    std::vector<std::vector<simgpu::KernelDesc>> kernel_groups;
    kernel_groups.reserve(groups.size());
    for (const auto& group : groups) {
      std::vector<simgpu::KernelDesc> ks;
      ks.reserve(group.size());
      for (int i : group) ks.push_back(kernels_[static_cast<std::size_t>(i)]);
      kernel_groups.push_back(std::move(ks));
    }
    return simgpu::stage_seconds(spec_, kernel_groups, options_.batch) +
           spec_.inter_stage_gap;
  }

  Stage make_stage(Mask e) const {
    std::vector<std::vector<int>> groups;
    DCN_CHECK(make_groups(e, groups)) << "reconstructed stage is invalid";
    Stage stage;
    for (const auto& group : groups) {
      Group g;
      for (int i : group) g.ops.push_back(ops_[static_cast<std::size_t>(i)]);
      stage.groups.push_back(std::move(g));
    }
    return stage;
  }

  double solve_from(Mask done) {
    if (done == full_) return 0.0;
    auto it = memo_.find(done);
    if (it != memo_.end()) return it->second;

    const Mask remaining = full_ & ~done;
    double best = std::numeric_limits<double>::infinity();
    Mask best_e = 0;
    std::vector<std::vector<int>> groups;
    // Enumerate every non-empty submask of the remaining ops as the next
    // stage candidate.
    for (Mask e = remaining;; e = (e - 1) & remaining) {
      if (e == 0) break;
      if (std::popcount(e) <= options_.max_stage_ops) {
        bool ready = true;
        for (Mask m = e; m;) {
          const int i = std::countr_zero(m);
          m &= m - 1;
          if (preds_[static_cast<std::size_t>(i)] & ~(done | e)) {
            ready = false;
            break;
          }
        }
        if (ready && make_groups(e, groups)) {
          const double cost = stage_cost(groups) + solve_from(done | e);
          if (cost < best) {
            best = cost;
            best_e = e;
          }
        }
      }
    }
    DCN_CHECK(best_e != 0) << "no valid stage found (pruning too tight?)";
    memo_[done] = best;
    choice_[done] = best_e;
    return best;
  }

  const graph::Graph& graph_;
  const simgpu::DeviceSpec& spec_;
  std::vector<OpId> ops_;
  IosOptions options_;
  std::vector<Mask> preds_;
  std::vector<Mask> succs_;
  std::vector<simgpu::KernelDesc> kernels_;
  Mask full_ = 0;
  std::unordered_map<Mask, double> memo_;
  std::unordered_map<Mask, Mask> choice_;
};

std::vector<OpId> device_ops(const graph::Graph& graph,
                             const std::vector<OpId>& ops) {
  std::vector<OpId> out;
  for (OpId id : ops) {
    if (graph::is_device_op(graph.node(id).kind)) out.push_back(id);
  }
  return out;
}

// Fallback for oversized branched blocks: one group per branch, one stage.
Stage branch_heuristic_stage(const graph::Graph& graph,
                             const graph::Block& block) {
  Stage stage;
  for (const auto& branch : graph::block_branches(graph, block)) {
    if (branch.empty()) continue;
    Group group;
    group.ops = branch;
    stage.groups.push_back(std::move(group));
  }
  DCN_CHECK(!stage.groups.empty()) << "branched block with no branches";
  return stage;
}

}  // namespace

Schedule optimize_schedule(const graph::Graph& graph,
                           const simgpu::DeviceSpec& spec,
                           const IosOptions& options) {
  Schedule schedule;
  for (const graph::Block& block : graph::extract_blocks(graph)) {
    const std::vector<OpId> ops = device_ops(graph, block.ops);
    if (ops.empty()) continue;
    if (!block.branched) {
      // Linear run: merge into a single single-group stage — optimal under
      // the cost model (removes gaps, cannot create overlap).
      Stage stage;
      stage.groups.push_back(Group{ops});
      schedule.stages.push_back(std::move(stage));
      continue;
    }
    // The DP's bitmask cannot represent sets beyond kMaxDpOps, so a raised
    // max_block_ops must not route an oversized block into it (the old code
    // crashed on DCN_CHECK here instead of degrading to the heuristic).
    const int dp_limit = std::min(options.max_block_ops, kMaxDpOps);
    if (static_cast<int>(ops.size()) > dp_limit) {
      schedule.stages.push_back(branch_heuristic_stage(graph, block));
      continue;
    }
    SetScheduler dp(graph, spec, ops, options);
    dp.solve(schedule.stages);
  }
  validate_schedule(graph, schedule);
  return schedule;
}

double schedule_cost(const graph::Graph& graph,
                     const simgpu::DeviceSpec& spec, const Schedule& schedule,
                     std::int64_t batch, simgpu::Precision precision) {
  double total = 0.0;
  for (const Stage& stage : schedule.stages) {
    std::vector<std::vector<simgpu::KernelDesc>> groups;
    groups.reserve(stage.groups.size());
    for (const Group& group : stage.groups) {
      std::vector<simgpu::KernelDesc> ks;
      ks.reserve(group.ops.size());
      for (OpId id : group.ops) {
        ks.push_back(simgpu::make_kernel_desc(graph, id, precision));
      }
      groups.push_back(std::move(ks));
    }
    total += simgpu::stage_seconds(spec, groups, batch) +
             spec.inter_stage_gap;
  }
  return total;
}

double brute_force_best_cost(const graph::Graph& graph,
                             const simgpu::DeviceSpec& spec,
                             std::int64_t batch) {
  std::vector<OpId> ops;
  for (const graph::OpNode& node : graph.nodes()) {
    if (graph::is_device_op(node.kind)) ops.push_back(node.id);
  }
  DCN_CHECK(ops.size() <= 14) << "graph too large for brute force";
  IosOptions options;
  options.batch = batch;
  options.max_stage_ops = static_cast<int>(ops.size());
  SetScheduler dp(graph, spec, ops, options);
  std::vector<Stage> stages;
  return dp.solve(stages);
}

}  // namespace dcn::ios
