// Deployed-model construction, in one place. Every workload builds its
// models here: the fp32 SppNet (the training form, and the module path
// scan_watershed runs), the pass-optimized graph with its NumericExecutor,
// and the int8 forms. QuantizedSppNet is slated for deletion, so it is
// constructed nowhere else in the benchmark.
#pragma once

#include <cstdint>
#include <memory>

#include "bench.hpp"
#include "detect/sppnet.hpp"
#include "detect/sppnet_config.hpp"
#include "graph/graph.hpp"
#include "graph/numeric.hpp"

namespace hostbench {

/// Weight seed of the untrained inference models. It stays fixed while
/// --seed varies the inputs: host time of an untrained net moves by ~10%
/// from one weight seed to another, which would swamp what runs compare.
inline constexpr std::uint64_t kWeightSeed = 2022;

/// SPP-Net #2, the production model of every serve/scan/pipeline bench.
dcn::detect::SppNetConfig full_model();
/// The cascade screener BENCH_cascade.json committed:
/// screener-w8-k3-l2-f64.
dcn::detect::SppNetConfig screener_model();

/// SPP-Net with seeded weights (span detect.init).
std::unique_ptr<dcn::detect::SppNet> make_net(
    Run& run, const dcn::detect::SppNetConfig& config,
    std::uint64_t weight_seed);

/// The net's pass-optimized inference graph at `input_size` and a
/// NumericExecutor bound to the net's current weights (span
/// graph.optimize).
struct Compiled {
  dcn::graph::Graph graph;
  std::unique_ptr<dcn::graph::NumericExecutor> executor;
};
Compiled compile(Run& run, dcn::detect::SppNet& net, std::int64_t input_size);

/// NumericExecutor::quantize on `calibration` (span detect.quantize).
void quantize(Run& run, Compiled& model, const dcn::Tensor& calibration);

/// The int8 module form of `net` (QuantizedSppNet), calibrated on
/// `calibration` (span detect.quantize).
std::unique_ptr<dcn::Module> int8_module(Run& run, dcn::detect::SppNet& net,
                                         const dcn::Tensor& calibration);

}  // namespace hostbench
