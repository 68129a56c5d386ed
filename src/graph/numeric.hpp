// Numeric execution of inference graphs on the host tensor engine.
//
// NumericExecutor interprets a graph::Graph with real trained weights, so
// the *same* DAG the IOS scheduler partitions and the simulated device
// prices can also be run numerically — which is what lets tests prove that
// the optimizer is semantics-preserving instead of assuming it.
// The executor only walks the graph: every conv, linear and pool node is
// computed by the same per-layer function the nn modules and
// QuantizedSppNet call (conv2d_forward[_int8], linear_forward[_int8],
// max_pool2d, adaptive_max_pool2d). Fused nodes (FusedConvReLU /
// FusedLinearReLU) pass relu = true, so the ReLU is applied in the GEMM's
// C-tile store (GemmEpilogue / QuantEpilogue), exactly as the unfused
// graph's standalone ReLU node computes it; a fused graph's outputs are
// bit-identical to its unfused twin's — at fp32 and int8, at any thread
// count (the engine's determinism contract, DESIGN.md "Tensor-engine
// threading model").
//
// Weights bind by op name (the builder's conv<i> / fc<i> / head naming),
// which the optimizer preserves: a weight map extracted once serves the
// naive graph, the optimized graph, and anything in between.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "detect/calibration.hpp"
#include "detect/sppnet.hpp"
#include "graph/graph.hpp"
#include "tensor/quantize.hpp"
#include "tensor/tensor.hpp"

namespace dcn::graph {

/// Learnable parameters of one compute op.
struct OpWeights {
  Tensor weight;  // conv: [out_c, in_c, k, k]; linear: [out, in]
  Tensor bias;    // [out_c] / [out]
};

/// Op name -> parameters.
using WeightMap = std::unordered_map<std::string, OpWeights>;

/// Copy a trained SPP-Net's weights out under the graph builder's op names
/// (conv0, conv1, ..., fc0, ..., head). The returned map binds to the naive
/// inference graph and to the optimized graph derived from it.
WeightMap extract_weights(detect::SppNet& net);

class NumericExecutor {
 public:
  /// `graph` is copied; `weights` must cover every compute op by name with
  /// shapes matching the op's attributes (throws ConfigError otherwise).
  NumericExecutor(const Graph& graph, WeightMap weights);

  /// fp32 inference: [N, C, H, W] -> the Output node's value, [N, ...].
  Tensor forward(const Tensor& input) const;

  /// Calibrate activation ranges with an fp32 walk of `calibration` (each
  /// conv/linear observes the float tensor feeding it — the observation
  /// points of QuantizedSppNet's independent calibration walk) and freeze
  /// conv/linear weights to symmetric per-channel int8.
  void quantize(const Tensor& calibration,
                const detect::CalibrationOptions& options = {});
  bool quantized() const { return quantized_; }

  /// INT8 inference (requires quantize()): conv/linear nodes run
  /// conv2d_forward_int8 / linear_forward_int8 (qgemm with the fused
  /// dequant+bias+ReLU epilogue); pools, concat, and standalone ReLU stay
  /// float.
  Tensor forward_int8(const Tensor& input) const;

  const Graph& graph() const { return graph_; }

 private:
  struct QuantOp {
    QuantizedWeights weights;
    QuantParams input_params;
  };

  Tensor run(const Tensor& input, bool int8,
             std::vector<detect::RangeObserver>* observers) const;

  Graph graph_;
  WeightMap weights_;
  std::vector<QuantOp> quant_;  // indexed by OpId; unused for non-compute ops
  bool quantized_ = false;
};

}  // namespace dcn::graph
