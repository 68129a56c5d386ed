// Tests for the inference-graph IR, builder, shape validation, and block
// extraction.
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/error.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/blocks.hpp"
#include "graph/builder.hpp"

namespace dcn::graph {
namespace {

Graph diamond_graph() {
  // input -> a -> {b, c} -> d(concat) -> out
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{8, 8, 8}});
  OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 8;
  const OpId a =
      g.add_op(OpKind::kConv2d, "a", conv, {in}, TensorDesc{{8, 8, 8}});
  OpAttrs pool;
  pool.pool_out = 2;
  const OpId b = g.add_op(OpKind::kAdaptivePool, "b", pool, {a},
                          TensorDesc{{8, 2, 2}});
  const OpId c = g.add_op(OpKind::kAdaptivePool, "c", pool, {a},
                          TensorDesc{{8, 2, 2}});
  const OpId d =
      g.add_op(OpKind::kConcat, "d", {}, {b, c}, TensorDesc{{64}});
  g.add_op(OpKind::kOutput, "out", {}, {d}, TensorDesc{{64}});
  return g;
}

TEST(Graph, AddOpValidatesInputs) {
  Graph g;
  EXPECT_THROW(
      g.add_op(OpKind::kReLU, "bad", {}, {0}, TensorDesc{{1}}),
      dcn::Error);  // references a not-yet-existing node
}

TEST(Graph, DanglingInputIdIsConfigErrorNamingTheId) {
  Graph g;
  g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{4}});
  try {
    g.add_op(OpKind::kReLU, "r", {}, {7}, TensorDesc{{4}});
    FAIL() << "dangling input id accepted";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("dangling input op id 7"),
              std::string::npos)
        << error.what();
  }
}

TEST(Graph, DuplicateEdgeIsConfigError) {
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{4}});
  // A node listing the same producer twice would double-count the edge in
  // every downstream consumer (blocks, scheduler, executor).
  EXPECT_THROW(
      g.add_op(OpKind::kConcat, "c", {}, {in, in}, TensorDesc{{8}}),
      ConfigError);
}

TEST(Graph, SuccessorsAndTopologicalOrder) {
  const Graph g = diamond_graph();
  const auto succ_a = g.successors(1);
  EXPECT_EQ(succ_a.size(), 2u);
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), g.size());
  std::vector<std::size_t> pos(g.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = i;
  }
  for (const OpNode& node : g.nodes()) {
    for (OpId in : node.inputs) {
      EXPECT_LT(pos[static_cast<std::size_t>(in)],
                pos[static_cast<std::size_t>(node.id)]);
    }
  }
}

TEST(Graph, InputDescFollowsFirstProducer) {
  const Graph g = diamond_graph();
  EXPECT_EQ(g.input_desc(1).numel(), 8 * 8 * 8);
  EXPECT_EQ(g.input_desc(0).numel(), 8 * 8 * 8);  // input: its own desc
}

TEST(OpNode, FlopsAndParamsForConv) {
  const Graph g = diamond_graph();
  const OpNode& conv = g.node(1);
  const TensorDesc in = g.input_desc(1);
  // 2 * Cin * K * K per output element.
  EXPECT_DOUBLE_EQ(conv.flops(in), 2.0 * 8 * 9 * (8 * 8 * 8));
  EXPECT_EQ(conv.parameter_count(in), 8 * 8 * 3 * 3 + 8);
}

TEST(OpNode, LinearFlopsAndBytes) {
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{100}});
  OpAttrs fc;
  fc.out_features = 10;
  const OpId lin =
      g.add_op(OpKind::kLinear, "fc", fc, {in}, TensorDesc{{10}});
  const OpNode& node = g.node(lin);
  EXPECT_DOUBLE_EQ(node.flops(g.input_desc(lin)), 2.0 * 100 * 10);
  EXPECT_EQ(node.parameter_count(g.input_desc(lin)), 100 * 10 + 10);
  EXPECT_DOUBLE_EQ(node.activation_bytes(g.input_desc(lin)),
                   4.0 * (100 + 10));
}

TEST(Builder, OriginalSppNetStructure) {
  const Graph g = build_inference_graph(detect::original_sppnet(), 100);
  // input + 3*(conv,relu,pool) + 3*(pool,flatten) + concat + fc + relu +
  // head + output = 21 nodes.
  EXPECT_EQ(g.size(), 21u);
  // Output of trunk must be 256 x 12 x 12 for a 100 input.
  bool found_trunk_out = false;
  for (const OpNode& node : g.nodes()) {
    if (node.name == "pool2") {
      EXPECT_EQ(node.output.dims,
                (std::vector<std::int64_t>{256, 12, 12}));
      found_trunk_out = true;
    }
  }
  EXPECT_TRUE(found_trunk_out);
  EXPECT_GT(g.total_flops(), 1e8);
  EXPECT_EQ(g.parameter_count(),
            detect::original_sppnet().parameter_count());
}

TEST(Builder, SppBranchCountTracksLevels) {
  for (std::int64_t first : {1, 2, 3, 4, 5}) {
    detect::SppNetConfig config = detect::original_sppnet();
    config.spp_levels.clear();
    config.spp_levels.push_back(first);
    if (first > 2) config.spp_levels.push_back(2);
    if (first > 1) config.spp_levels.push_back(1);
    const Graph g = build_inference_graph(config, 64);
    std::size_t adaptive = 0;
    for (const OpNode& node : g.nodes()) {
      if (node.kind == OpKind::kAdaptivePool) ++adaptive;
    }
    EXPECT_EQ(adaptive, config.spp_levels.size());
  }
}

TEST(Builder, RejectsCollapsingInputs) {
  EXPECT_THROW(build_inference_graph(detect::original_sppnet(), 4),
               dcn::Error);
}

TEST(Builder, DotExportMentionsEveryOp) {
  const Graph g = build_inference_graph(detect::original_sppnet(), 64);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("spp_concat"), std::string::npos);
  EXPECT_NE(dot.find("conv0"), std::string::npos);
}

TEST(Blocks, DiamondDecomposition) {
  const Graph g = diamond_graph();
  const auto blocks = extract_blocks(g);
  // Leading linear {in, a}, branched {b, c}, trailing {d, out}.
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_FALSE(blocks[0].branched);
  EXPECT_TRUE(blocks[1].branched);
  EXPECT_EQ(blocks[1].entry, 1);
  EXPECT_EQ(blocks[1].exit, 4);
  EXPECT_EQ(blocks[1].ops.size(), 2u);
  EXPECT_FALSE(blocks[2].branched);
}

TEST(Blocks, EveryOpExactlyOnce) {
  const Graph g = build_inference_graph(detect::sppnet_candidate2(), 100);
  const auto blocks = extract_blocks(g);
  std::set<OpId> seen;
  for (const Block& block : blocks) {
    for (OpId id : block.ops) {
      EXPECT_FALSE(seen.count(id)) << "op " << id << " in two blocks";
      seen.insert(id);
    }
  }
  EXPECT_EQ(seen.size(), g.size());
}

TEST(Blocks, SppBlockBranchesAreChains) {
  const Graph g = build_inference_graph(detect::original_sppnet(), 100);
  const auto blocks = extract_blocks(g);
  const Block* branched = nullptr;
  for (const Block& block : blocks) {
    if (block.branched) {
      EXPECT_EQ(branched, nullptr) << "multiple branched blocks";
      branched = &block;
    }
  }
  ASSERT_NE(branched, nullptr);
  const auto branches = block_branches(g, *branched);
  EXPECT_EQ(branches.size(), 3u);  // levels {4, 2, 1}
  for (const auto& branch : branches) {
    EXPECT_EQ(branch.size(), 2u);  // pool -> flatten
    EXPECT_EQ(g.node(branch[0]).kind, OpKind::kAdaptivePool);
    EXPECT_EQ(g.node(branch[1]).kind, OpKind::kFlatten);
  }
}

TEST(Blocks, PureChainIsOneLinearBlock) {
  Graph g;
  const OpId in = g.add_op(OpKind::kInput, "in", {}, {}, TensorDesc{{4}});
  OpAttrs fc;
  fc.out_features = 4;
  OpId prev = in;
  for (int i = 0; i < 4; ++i) {
    prev = g.add_op(OpKind::kLinear, "fc" + std::to_string(i), fc, {prev},
                    TensorDesc{{4}});
  }
  const auto blocks = extract_blocks(g);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_FALSE(blocks[0].branched);
  EXPECT_EQ(blocks[0].ops.size(), 5u);
}

TEST(ValidateShapes, AcceptsBuilderGraphs) {
  for (const auto& config : detect::table1_models()) {
    const auto g = graph::build_inference_graph(config, 100);
    EXPECT_NO_THROW(graph::validate_shapes(g)) << config.name;
  }
}

TEST(ValidateShapes, CatchesBadConvArithmetic) {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{3, 10, 10}});
  graph::OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 8;
  g.add_op(graph::OpKind::kConv2d, "conv", conv, {in},
           graph::TensorDesc{{8, 9, 9}});  // wrong: same padding keeps 10
  EXPECT_THROW(graph::validate_shapes(g), Error);
}

TEST(ValidateShapes, CatchesConcatMiscount) {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{16}});
  const auto a = g.add_op(graph::OpKind::kFlatten, "a", {}, {in},
                          graph::TensorDesc{{16}});
  const auto b = g.add_op(graph::OpKind::kFlatten, "b", {}, {in},
                          graph::TensorDesc{{16}});
  g.add_op(graph::OpKind::kConcat, "cat", {}, {a, b},
           graph::TensorDesc{{30}});  // wrong: should be 32
  EXPECT_THROW(graph::validate_shapes(g), Error);
}

TEST(ValidateShapes, CatchesLinearWidthMismatch) {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{16}});
  graph::OpAttrs fc;
  fc.out_features = 8;
  g.add_op(graph::OpKind::kLinear, "fc", fc, {in},
           graph::TensorDesc{{9}});  // wrong
  EXPECT_THROW(graph::validate_shapes(g), Error);
}

}  // namespace
}  // namespace dcn::graph
