// Graph-node replays: every node group of the fused SPP-Net #2 graph runs
// as its own subgraph through NumericExecutor, at b1 (batch 1, 100 px) and
// b32 (batch 32, 48 px), beside the whole graph; plus the module-vs-
// executor ratio at b32, simgpu launch counts and kernel shares, and the
// two-clock per-node table (the paper's Table 3 on the host and the
// virtual clock).
#include <cstdio>
#include <map>
#include <set>

#include "core/error.hpp"
#include "geo/dataset.hpp"
#include "ios/executor.hpp"
#include "ios/scheduler.hpp"
#include "models.hpp"
#include "profiler/report.hpp"
#include "simgpu/device.hpp"
#include "simgpu/spec.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using dcn::graph::Graph;
using dcn::graph::OpId;
using dcn::graph::OpKind;
using dcn::graph::OpNode;

const char* const kGroups[] = {"conv0", "conv1", "conv2", "pool",
                               "spp",   "fc0",   "head"};
const char* const kComputeGroups[] = {"conv0", "conv1", "conv2", "fc0"};

std::string group_of(const std::string& node) {
  if (node.rfind("pool", 0) == 0) return "pool";
  if (node.rfind("spp", 0) == 0) return "spp";
  return node;  // conv<i>, fc<i>, head: fused nodes keep the base op's name
}

// A run of consecutive nodes of one group fed by a single outside node.
struct Region {
  std::string group;
  std::vector<OpId> nodes;
  OpId source = dcn::graph::kInvalidOp;
};

std::vector<Region> regions_of(const Graph& g) {
  std::vector<Region> regions;
  for (const OpNode& node : g.nodes()) {
    if (node.kind == OpKind::kInput || node.kind == OpKind::kOutput) continue;
    const std::string group = group_of(node.name);
    if (regions.empty() || regions.back().group != group) {
      regions.push_back({group, {}, dcn::graph::kInvalidOp});
    }
    regions.back().nodes.push_back(node.id);
  }
  for (Region& r : regions) {
    const std::set<OpId> inside(r.nodes.begin(), r.nodes.end());
    std::set<OpId> sources;
    for (const OpId id : r.nodes) {
      for (const OpId in : g.node(id).inputs) {
        if (inside.count(in) == 0) sources.insert(in);
      }
    }
    DCN_CHECK(sources.size() == 1)
        << "node group " << r.group << " has " << sources.size()
        << " outside inputs";
    r.source = *sources.begin();
  }
  return regions;
}

// Per-sample shape a region's Input takes: NumericExecutor::quantize wants
// NCHW calibration, so a flat feature vector enters as [features, 1, 1]
// (linear ops flatten their input anyway).
dcn::graph::TensorDesc region_input(const Graph& g, const Region& r) {
  dcn::graph::TensorDesc desc = g.node(r.source).output;
  if (desc.dims.size() == 1) desc.dims = {desc.dims[0], 1, 1};
  return desc;
}

dcn::Tensor as_region_input(const dcn::Tensor& t) {
  return t.rank() == 2 ? t.reshaped(dcn::Shape{t.dim(0), t.dim(1), 1, 1}) : t;
}

// Input(source's output) -> the region's nodes -> Output.
Graph region_graph(const Graph& g, const Region& r) {
  Graph sub;
  std::map<OpId, OpId> remap;
  remap[r.source] =
      sub.add_op(OpKind::kInput, "input", {}, {}, region_input(g, r));
  for (const OpId id : r.nodes) {
    const OpNode& n = g.node(id);
    std::vector<OpId> inputs;
    for (const OpId in : n.inputs) inputs.push_back(remap.at(in));
    remap[id] = sub.add_op(n.kind, n.name, n.attrs, inputs, n.output);
  }
  sub.add_op(OpKind::kOutput, "output", {}, {remap.at(r.nodes.back())},
             g.node(r.nodes.back()).output);
  return sub;
}

// Every node up to `source` (insertion order is topological), with an
// Output on `source`: computes the region's input.
Graph prefix_graph(const Graph& g, OpId source) {
  Graph sub;
  for (const OpNode& n : g.nodes()) {
    if (n.id > source) break;
    sub.add_op(n.kind, n.name, n.attrs, n.inputs, n.output);
  }
  sub.add_op(OpKind::kOutput, "output", {}, {source}, g.node(source).output);
  return sub;
}

dcn::graph::WeightMap weights_for(const Graph& g,
                                  const dcn::graph::WeightMap& all) {
  dcn::graph::WeightMap out;
  for (const OpNode& n : g.nodes()) {
    const auto it = all.find(n.name);
    if (it != all.end()) out.emplace(n.name, it->second);
  }
  return out;
}

struct Replay {
  std::string tag;  // b1 / b32
  std::int64_t batch = 0;
  // [int8][group] and [int8] medians, milliseconds.
  std::map<std::string, double> group_ms[2];
  double exec_ms[2] = {0.0, 0.0};
  std::map<std::string, double> group_flops;  // per batch
  double fc0_weights = 0.0;                    // fp32 weight count
};

Replay replay(Run& run, Compiled& model, const dcn::graph::WeightMap& all,
              const dcn::Tensor& input, const dcn::Tensor& calibration,
              const std::string& tag, int reps) {
  ScopedSpan span(run.tracer, "bench", "replay." + tag);
  Replay out;
  out.tag = tag;
  out.batch = input.dim(0);
  struct Part {
    Region region;
    std::unique_ptr<dcn::graph::NumericExecutor> exec;
    dcn::Tensor input;
  };
  std::vector<Part> parts;
  for (Region& region : regions_of(model.graph)) {
    const Graph prefix = prefix_graph(model.graph, region.source);
    dcn::graph::NumericExecutor tap(prefix, weights_for(prefix, all));
    const Graph sub = region_graph(model.graph, region);
    Part part{region, std::make_unique<dcn::graph::NumericExecutor>(
                          sub, weights_for(sub, all)),
              as_region_input(tap.forward(input))};
    part.exec->quantize(as_region_input(tap.forward(calibration)));
    for (const OpId id : region.nodes) {
      out.group_flops[region.group] +=
          model.graph.node(id).flops(model.graph.input_desc(id)) *
          static_cast<double>(out.batch);
    }
    parts.push_back(std::move(part));
  }
  out.fc0_weights = static_cast<double>(all.at("fc0").weight.numel());

  std::map<std::string, std::vector<double>> group_samples[2];
  std::vector<double> exec_samples[2];
  for (int rep = 0; rep <= reps; ++rep) {  // rep 0 warms up
    const std::int64_t op = run.next_op();
    for (const int int8 : {0, 1}) {
      const std::string p = int8 ? "int8" : "fp32";
      std::map<std::string, double> sums;
      for (Part& part : parts) {
        ScopedSpan node(run.tracer, "graph",
                        "graph.node." + part.region.group + "." + p, op);
        const double t0 = now();
        (void)(int8 ? part.exec->forward_int8(part.input)
                    : part.exec->forward(part.input));
        sums[part.region.group] += now() - t0;
      }
      ScopedSpan whole(run.tracer, "graph", "graph.exec." + p, op);
      const double t0 = now();
      (void)(int8 ? model.executor->forward_int8(input)
                  : model.executor->forward(input));
      const double exec = now() - t0;
      if (rep == 0) continue;
      exec_samples[int8].push_back(exec);
      for (const auto& [group, sec] : sums) {
        group_samples[int8][group].push_back(sec);
      }
    }
  }
  for (const int int8 : {0, 1}) {
    out.exec_ms[int8] = median(exec_samples[int8]) * 1e3;
    for (const auto& [group, values] : group_samples[int8]) {
      out.group_ms[int8][group] = median(values) * 1e3;
    }
  }
  return out;
}

void report_replay(Run& run, const Replay& r, int reps) {
  for (const int int8 : {0, 1}) {
    const std::string p = int8 ? "int8" : "fp32";
    const std::string suffix = p + "_" + r.tag;
    double nodes = 0.0;
    for (const char* group : kGroups) {
      const double ms = r.group_ms[int8].at(group);
      nodes += ms;
      run.results.add(Kind::kLayer,
                      std::string("graph.node.") + group + "." + suffix + "_ms",
                      ms, "ms", "host", reps);
    }
    for (const char* group : kComputeGroups) {
      run.results.add(
          Kind::kLayer,
          std::string("graph.node.") + group + "." + suffix + "_gflops",
          r.group_flops.at(group) / (r.group_ms[int8].at(group) * 1e6),
          "GFLOP/s", "host", reps);
    }
    if (r.tag == "b1") {
      run.results.add(Kind::kLayer, "graph.exec." + suffix + "_ms",
                      r.exec_ms[int8], "ms", "host", reps);
      // Weight bytes fc0 streams per call: 4 per fp32 weight, 1 per int8.
      const double bytes = r.fc0_weights * (int8 ? 1.0 : 4.0);
      run.results.add(Kind::kLayer, "graph.node.fc0." + suffix + "_weight_gbps",
                      bytes / (r.group_ms[int8].at("fc0") * 1e6), "GB/s",
                      "host", reps);
    }
    run.results.add(Kind::kLayer, "graph.exec." + suffix + "_overhead_ms",
                    r.exec_ms[int8] - nodes, "ms", "host", reps);
  }
}

struct Sim {
  double latency_s = 0.0;
  std::int64_t launches = 0;
  std::map<std::string, double> group_s;
  dcn::profiler::Recorder one;  // a single inference's spans
};

// Virtual clock: the fused graph under its IOS schedule on the A5500 spec.
Sim simulate(Run& run, const Graph& g, std::int64_t batch, bool int8,
             dcn::profiler::Recorder* trace) {
  ScopedSpan span(run.tracer, "simgpu", "simgpu.measure");
  const auto spec = dcn::simgpu::a5500_spec();
  const auto precision =
      int8 ? dcn::simgpu::Precision::kInt8 : dcn::simgpu::Precision::kFp32;
  dcn::ios::IosOptions options;
  options.batch = batch;
  options.precision = precision;
  const dcn::ios::Schedule schedule =
      dcn::ios::optimize_schedule(g, spec, options);
  Sim sim;
  {
    dcn::simgpu::Device device(spec, trace);
    sim.latency_s = dcn::ios::measure_latency(g, schedule, device, batch, 1, 3,
                                              precision);
  }
  dcn::simgpu::Device device(spec, &sim.one);
  dcn::ios::InferenceSession session(g, schedule, device, precision);
  session.initialize();
  sim.one.clear();
  (void)session.run(batch);
  sim.launches = static_cast<std::int64_t>(sim.one.kernel_spans().size());
  for (const auto& k : sim.one.kernel_spans()) {
    sim.group_s[group_of(k.name)] += k.duration;
  }
  return sim;
}

double share(const std::map<std::string, double>& parts,
             const std::string& key) {
  double total = 0.0;
  for (const auto& [name, value] : parts) total += value;
  const auto it = parts.find(key);
  return total > 0.0 && it != parts.end() ? it->second / total : 0.0;
}

dcn::geo::DrainageDataset patches(Run& run, std::int64_t size) {
  ScopedSpan span(run.tracer, "geo", "geo.synth");
  dcn::geo::DatasetConfig config;
  config.seed = run.seed + 21;
  config.patch_size = size;
  config.terrain.rows = config.terrain.cols = 384;
  return dcn::geo::DrainageDataset::synthesize(config);
}

dcn::Tensor first_n(const dcn::geo::DrainageDataset& data, std::int64_t n) {
  std::vector<std::size_t> idx;
  for (std::int64_t i = 0; i < n; ++i) {
    idx.push_back(static_cast<std::size_t>(i) % data.size());
  }
  return data.make_batch(idx).images;
}

}  // namespace

void profile_graph(Run& run) {
  ScopedSpan span(run.tracer, "bench", "profile.graph");
  constexpr int kReps1 = 5;
  constexpr int kReps32 = 2;
  auto net = make_net(run, full_model(), kWeightSeed);
  net->set_training(false);
  const dcn::graph::WeightMap all = dcn::graph::extract_weights(*net);

  struct Shape {
    const char* tag;
    std::int64_t batch, size;
    int reps;
  };
  std::map<std::string, std::map<std::string, double>> host_share, sim_share;
  double sim_b1_ms[2] = {0.0, 0.0};
  for (const Shape shape : {Shape{"b1", 1, 100, kReps1},
                            Shape{"b32", 32, 48, kReps32}}) {
    const dcn::geo::DrainageDataset data = patches(run, shape.size);
    const dcn::Tensor input = first_n(data, shape.batch);
    const dcn::Tensor calibration = first_n(data, 8);
    Compiled model = compile(run, *net, shape.size);
    quantize(run, model, calibration);
    const Replay r =
        replay(run, model, all, input, calibration, shape.tag, shape.reps);
    report_replay(run, r, shape.reps);

    if (shape.batch == 32) {
      // The module path scan_watershed runs vs the executor, same batch.
      auto int8 = int8_module(run, *net, calibration);
      std::vector<double> ratio[2];
      for (int rep = 0; rep <= shape.reps; ++rep) {
        for (const int q : {0, 1}) {
          dcn::Module& module = q ? *int8 : static_cast<dcn::Module&>(*net);
          double t0 = now();
          (void)module.forward(input);
          const double module_s = now() - t0;
          t0 = now();
          (void)(q ? model.executor->forward_int8(input)
                   : model.executor->forward(input));
          if (rep > 0) ratio[q].push_back(module_s / (now() - t0));
        }
      }
      run.results.add(Kind::kLayer, "detect.module_over_exec.fp32_b32",
                      median(ratio[0]), "ratio", "host", shape.reps);
      run.results.add(Kind::kLayer, "detect.module_over_exec.int8_b32",
                      median(ratio[1]), "ratio", "host", shape.reps);
    }

    for (const int q : {0, 1}) {
      const std::string column =
          std::string(q ? "int8 " : "fp32 ") + shape.tag;
      const Sim sim = simulate(run, model.graph, shape.batch, q == 1,
                               shape.batch == 1 ? &run.recorder : nullptr);
      for (const char* group : kGroups) {
        host_share[group][column] = share(r.group_ms[q], group);
        sim_share[group][column] = share(sim.group_s, group);
      }
      if (shape.batch != 1) continue;
      const std::string p = q ? "int8" : "fp32";
      run.results.add(Kind::kLayer, "simgpu.launches." + p + "_b1",
                      static_cast<double>(sim.launches), "count", "sim", 1);
      sim_b1_ms[q] = sim.latency_s * 1e3;
      if (q == 0) {
        using dcn::profiler::KernelCategory;
        run.results.add(Kind::kLayer, "simgpu.share.conv.fp32_b1",
                        dcn::profiler::kernel_share(sim.one, KernelCategory::kConv),
                        "ratio", "sim", 1);
        run.results.add(Kind::kLayer, "simgpu.share.matmul.fp32_b1",
                        dcn::profiler::kernel_share(sim.one,
                                                    KernelCategory::kMatMul),
                        "ratio", "sim", 1);
        run.results.add(Kind::kLayer, "simgpu.share.pooling.fp32_b1",
                        dcn::profiler::kernel_share(sim.one,
                                                    KernelCategory::kPooling),
                        "ratio", "sim", 1);
      }
    }
  }

  // The virtual clock is deterministic, so its latency is reported as the
  // int8/fp32 ratio (below 1: the virtual clock's int8 speedup) with the
  // absolute values printed beside it.
  run.results.add(Kind::kLayer, "simgpu.online.int8_over_fp32_b1",
                  sim_b1_ms[1] / sim_b1_ms[0], "ratio", "sim", 3);
  std::printf("simgpu batch-1 latency: fp32 %.6f ms, int8 %.6f ms\n",
              sim_b1_ms[0], sim_b1_ms[1]);

  // Two-clock per-node table: measured host share beside simulated share.
  const char* const columns[] = {"fp32 b1", "int8 b1", "fp32 b32", "int8 b32"};
  std::printf("\nper-node share of inference time, host clock | virtual clock "
              "(A5500)\n%-6s", "node");
  for (const char* c : columns) std::printf(" | %-17s", c);
  std::printf("\n");
  for (const char* group : kGroups) {
    std::printf("%-6s", group);
    for (const char* c : columns) {
      std::printf(" | %6.1f%% / %6.1f%%", host_share[group][c] * 100.0,
                  sim_share[group][c] * 100.0);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace hostbench
