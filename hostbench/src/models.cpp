#include "models.hpp"

#include "core/rng.hpp"
#include "detect/quantized_sppnet.hpp"
#include "graph/builder.hpp"
#include "graph/passes.hpp"
#include "scan/screener.hpp"

namespace hostbench {

dcn::detect::SppNetConfig full_model() {
  return dcn::detect::sppnet_candidate2();
}

dcn::detect::SppNetConfig screener_model() {
  dcn::nas::SearchPoint point;
  point.conv1_kernel = 3;
  point.spp_first_level = 2;
  point.fc_sizes = {64};
  return dcn::scan::materialize_screener(point, /*trunk_width=*/8);
}

std::unique_ptr<dcn::detect::SppNet> make_net(
    Run& run, const dcn::detect::SppNetConfig& config,
    std::uint64_t weight_seed) {
  ScopedSpan span(run.tracer, "detect", "detect.init");
  dcn::Rng rng(weight_seed);
  return std::make_unique<dcn::detect::SppNet>(config, rng);
}

Compiled compile(Run& run, dcn::detect::SppNet& net, std::int64_t input_size) {
  ScopedSpan span(run.tracer, "graph", "graph.optimize");
  Compiled compiled;
  compiled.graph = dcn::graph::optimize_graph(
      dcn::graph::build_inference_graph(net.config(), input_size));
  compiled.executor = std::make_unique<dcn::graph::NumericExecutor>(
      compiled.graph, dcn::graph::extract_weights(net));
  return compiled;
}

void quantize(Run& run, Compiled& model, const dcn::Tensor& calibration) {
  ScopedSpan span(run.tracer, "detect", "detect.quantize");
  model.executor->quantize(calibration);
}

std::unique_ptr<dcn::Module> int8_module(Run& run, dcn::detect::SppNet& net,
                                         const dcn::Tensor& calibration) {
  ScopedSpan span(run.tracer, "detect", "detect.quantize");
  return std::make_unique<dcn::detect::QuantizedSppNet>(net, calibration);
}

}  // namespace hostbench
