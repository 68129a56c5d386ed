// online: a closed loop with one client. Each request is one 100x100
// 4-band patch from the seeded synthetic dataset, run through SPP-Net #2 at
// batch 1 by the pass-optimized graph's NumericExecutor, fp32 and int8
// requests in alternating slices. At batch 1 fc0 streams 126 MB of weights per
// request, so the GEMV and qgemm kernels and the executor's per-call
// overhead do most of their work here.
#include <cstdio>
#include <exception>

#include "checks.hpp"
#include "core/rng.hpp"
#include "detect/calibration.hpp"
#include "geo/dataset.hpp"
#include "models.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

constexpr std::int64_t kPatch = 100;
constexpr int kWorlds = 6;  // ~300 distinct patches
constexpr std::int64_t kCalibrationImages = 8;
/// Every kSampleEvery-th request keeps its output for the reference checks.
constexpr std::int64_t kSampleEvery = 20;
/// Share of --seconds given to fp32 requests (int8 requests cost ~7x).
constexpr double kFp32Share = 0.4;
/// fp32 and int8 slices alternate in rounds of this many seconds, so both
/// precisions sample the same stretch of host time: on a shared host the
/// speed drifts by 10% and more over tens of seconds.
constexpr double kRoundSeconds = 1.0;

struct Sampled {
  std::size_t sample = 0;
  dcn::Tensor output;
};

struct Phase {
  bool int8 = false;
  std::int64_t requests = 0;  // attempted so far; indexes the patch order
  std::vector<double> latency;  // seconds, completed requests
  std::vector<Sampled> sampled;
  double seconds = 0.0;
};

dcn::Tensor patch(const dcn::geo::DrainageDataset& dataset, std::size_t i) {
  return dataset.make_batch({i}).images;
}

// Requests of one precision, back to back, for `budget` seconds (at least
// one request).
void run_slice(Run& run, const Compiled& model,
               const dcn::geo::DrainageDataset& dataset,
               const std::vector<std::size_t>& order, Phase& phase,
               double budget) {
  const char* precision = phase.int8 ? "int8" : "fp32";
  const double start = now();
  do {
    const std::int64_t i = phase.requests++;
    const std::size_t sample = order[static_cast<std::size_t>(i) % order.size()];
    const dcn::Tensor input = patch(dataset, sample);
    ScopedSpan request(run.tracer, "bench",
                       std::string("request.") + precision, run.next_op());
    const double t0 = now();
    try {
      dcn::Tensor out;
      {
        ScopedSpan exec(run.tracer, "graph",
                        phase.int8 ? "graph.forward_int8" : "graph.forward");
        out = phase.int8 ? model.executor->forward_int8(input)
                         : model.executor->forward(input);
      }
      std::vector<dcn::detect::Prediction> preds;
      {
        ScopedSpan decode(run.tracer, "detect", "detect.decode");
        preds = dcn::detect::SppNet::decode(out);
      }
      const double latency = now() - t0;
      const bool valid = predictions_valid(preds);
      run.results.count(1, valid ? 0 : 1);
      if (!valid) {
        std::fprintf(stderr, "hostbench: %s request %lld: invalid output\n",
                     precision, static_cast<long long>(i));
        continue;
      }
      phase.latency.push_back(latency);
      if (i % kSampleEvery == 0) phase.sampled.push_back({sample, out});
    } catch (const std::exception& e) {
      run.results.count(1, 1);
      std::fprintf(stderr, "hostbench: %s request %lld threw: %s\n",
                   precision, static_cast<long long>(i), e.what());
    }
  } while (now() - start < budget);
  phase.seconds += now() - start;
}

}  // namespace

void run_online(Run& run) {
  // --- Setup -----------------------------------------------------------------
  dcn::geo::DatasetConfig data;
  data.seed = run.seed;
  data.patch_size = kPatch;
  data.terrain.rows = data.terrain.cols = 384;
  data.num_worlds = kWorlds;
  dcn::geo::DrainageDataset dataset;
  {
    ScopedSpan span(run.tracer, "geo", "geo.synth");
    dataset = dcn::geo::DrainageDataset::synthesize(data);
  }
  auto net = make_net(run, full_model(), kWeightSeed);
  Compiled model = compile(run, *net, kPatch);
  std::vector<std::size_t> picks;
  for (const std::int64_t i : dcn::detect::calibration_split(
           static_cast<std::int64_t>(dataset.size()), kCalibrationImages,
           run.seed + 2)) {
    picks.push_back(static_cast<std::size_t>(i));
  }
  const dcn::Tensor calibration = dataset.make_batch(picks).images;
  quantize(run, model, calibration);
  dcn::Rng order_rng(run.seed + 3);
  const std::vector<std::size_t> order = order_rng.permutation(dataset.size());
  warm_up(run, [&] {
    const dcn::Tensor input = patch(dataset, order[0]);
    (void)model.executor->forward(input);
    (void)model.executor->forward_int8(input);
  });
  if (run.injected("perturb-weight")) {
    // The reference module drifts from the parameters the executor serves:
    // the head's objectness bias, which no int8 rounding can absorb.
    net->head().parameters().back().value->data()[0] += 0.1f;
  }

  // --- Timed phase -----------------------------------------------------------
  run.begin_timed();
  Phase fp32;
  Phase int8;
  int8.int8 = true;
  const double start = now();
  do {
    run_slice(run, model, dataset, order, fp32, kRoundSeconds * kFp32Share);
    run_slice(run, model, dataset, order, int8,
              kRoundSeconds * (1.0 - kFp32Share));
  } while (now() - start < run.seconds);
  run.end_timed();

  report_phase(run, "fp32", fp32.latency,
               static_cast<double>(fp32.latency.size()) / fp32.seconds);
  report_phase(run, "int8", int8.latency,
               static_cast<double>(int8.latency.size()) / int8.seconds);

  // --- Output checks on the sampled requests --------------------------------
  if (run.injected("flip-bit")) {
    flip_bit(fp32.sampled.front().output, 0);
    flip_bit(int8.sampled.front().output, 0);
  }
  net->set_training(false);
  for (const Sampled& s : fp32.sampled) {
    run.results.check(
        bitwise_equal(s.output, net->forward(patch(dataset, s.sample))),
        "online fp32 sample " + std::to_string(s.sample) +
            ": executor output != SppNet::forward");
  }
  auto reference_int8 = int8_module(run, *net, calibration);
  for (const Sampled& s : int8.sampled) {
    run.results.check(
        bitwise_equal(s.output, reference_int8->forward(patch(dataset, s.sample))),
        "online int8 sample " + std::to_string(s.sample) +
            ": executor output != QuantizedSppNet::forward");
  }
  // The portable generic kernels with tuning off must agree bit for bit
  // with the dispatched, tuned variant.
  auto& tuner = dcn::kernels::TileTuner::global();
  tuner.set_enabled(false);
  {
    dcn::kernels::KernelRegistry::ScopedForce generic("generic");
    run.results.check(generic.ok(), "generic kernel variant unavailable");
    for (const Sampled& s : fp32.sampled) {
      run.results.check(
          bitwise_equal(s.output, model.executor->forward(patch(dataset, s.sample))),
          "online fp32 sample " + std::to_string(s.sample) +
              ": dispatched kernels != generic kernels");
    }
    for (const Sampled& s : int8.sampled) {
      run.results.check(
          bitwise_equal(s.output,
                        model.executor->forward_int8(patch(dataset, s.sample))),
          "online int8 sample " + std::to_string(s.sample) +
              ": dispatched kernels != generic kernels");
    }
  }
  tuner.set_enabled(true);
  std::printf("online: %zu fp32 + %zu int8 requests, %zu + %zu sampled for "
              "reference checks, %zu distinct patches\n",
              fp32.latency.size(), int8.latency.size(), fp32.sampled.size(),
              int8.sampled.size(), dataset.size());
}

}  // namespace hostbench
