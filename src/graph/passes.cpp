#include "graph/passes.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace dcn::graph {
namespace {

// Consumers for which a producer's rank is irrelevant: they read a flat
// contiguous buffer and only element counts matter.
bool reads_numel_only(OpKind kind) {
  return kind == OpKind::kFlatten || kind == OpKind::kConcat ||
         kind == OpKind::kLinear || kind == OpKind::kFusedLinearReLU;
}

bool contains(const std::vector<OpId>& ids, OpId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

Graph optimize_graph(const Graph& graph) {
  const std::size_t n = graph.size();
  // Consumers come after their producer in insertion order, and every
  // redirect below targets the visited node or an earlier one, so a node's
  // consumer list is still the input graph's when the sweep reaches it.
  // Its consumers' input lists are not: `inputs` holds each node's inputs
  // as rewritten so far, which is what the duplicate-edge guard must read
  // (a Concat of two Flattens of one pool keeps the second Flatten).
  std::vector<std::vector<OpId>> consumers(n);
  std::vector<std::vector<OpId>> inputs(n);
  for (const OpNode& node : graph.nodes()) {
    inputs[static_cast<std::size_t>(node.id)] = node.inputs;
    for (OpId in : node.inputs) {
      consumers[static_cast<std::size_t>(in)].push_back(node.id);
    }
  }
  const auto redirect = [&](OpId from, OpId to) {
    for (OpId c : consumers[static_cast<std::size_t>(from)]) {
      std::vector<OpId>& ins = inputs[static_cast<std::size_t>(c)];
      std::replace(ins.begin(), ins.end(), from, to);
    }
  };

  std::vector<bool> dropped(n, false);
  std::vector<OpId> fused_relu(n, kInvalidOp);  // compute op -> its ReLU
  for (const OpNode& node : graph.nodes()) {
    const auto id = static_cast<std::size_t>(node.id);
    const std::vector<OpId>& cons = consumers[id];
    if (node.kind == OpKind::kFlatten) {
      const OpId producer = inputs[id].front();
      const bool foldable =
          !cons.empty() && std::all_of(cons.begin(), cons.end(), [&](OpId c) {
            return reads_numel_only(graph.node(c).kind) &&
                   !contains(inputs[static_cast<std::size_t>(c)], producer);
          });
      if (foldable) {
        redirect(node.id, producer);
        dropped[id] = true;
      }
    } else if ((node.kind == OpKind::kConv2d ||
                node.kind == OpKind::kLinear) &&
               cons.size() == 1 &&
               graph.node(cons.front()).kind == OpKind::kReLU) {
      // The ReLU is this op's only consumer, so none of the ReLU's own
      // consumers reads this op yet: the redirect adds no duplicate edge.
      redirect(cons.front(), node.id);
      dropped[static_cast<std::size_t>(cons.front())] = true;
      fused_relu[id] = cons.front();
    }
  }

  std::vector<OpId> remap(n, kInvalidOp);
  Graph out;
  for (const OpNode& node : graph.nodes()) {
    const auto id = static_cast<std::size_t>(node.id);
    if (dropped[id]) continue;
    std::vector<OpId> ins;
    ins.reserve(inputs[id].size());
    for (OpId in : inputs[id]) {
      ins.push_back(remap[static_cast<std::size_t>(in)]);
    }
    if (fused_relu[id] == kInvalidOp) {
      remap[id] = out.add_op(node.kind, node.name, node.attrs, std::move(ins),
                             node.output);
    } else {
      const OpKind fused = node.kind == OpKind::kConv2d
                               ? OpKind::kFusedConvReLU
                               : OpKind::kFusedLinearReLU;
      remap[id] = out.add_op(fused, node.name, node.attrs, std::move(ins),
                             graph.node(fused_relu[id]).output);
    }
  }
  validate_shapes(out);
  return out;
}

std::size_t device_op_count(const Graph& graph) {
  std::size_t count = 0;
  for (const OpNode& node : graph.nodes()) {
    if (is_device_op(node.kind)) ++count;
  }
  return count;
}

}  // namespace dcn::graph
