// Host-clock benchmark of the drainage-crossing detector. One process runs
// one workload (online, scan or train) with one client, pinned to at most
// four tensor-engine threads, on a fresh tile-tuner cache directory.
//
//   hostbench --workload online --seed 1 --seconds 6 --trace 0
//             --tuner-dir <empty dir>
//
// Untraced runs print the end-to-end metrics; traced runs (--trace 1) print
// the per-layer metrics and write a Chrome trace with the host spans on
// host/<layer> lanes beside the simgpu spans. The last stdout line is the
// result JSON; the exit code is non-zero when any output check failed.
// hostbench/run.py builds and drives this binary.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "profiler/trace.hpp"
#include "tensor/kernels/registry.hpp"
#include "tensor/kernels/tuner.hpp"
#include "workloads.hpp"

namespace {

using hostbench::Kind;
using hostbench::Run;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(ch)));
      out += buffer;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// The winning tile of every shape class tuned this run, read back from the
// private cache directory (the tuner's key=/mr=/nr=/mc=/nc= entry format),
// so a tile flip between runs shows in the manifest.
std::map<std::string, std::string> tuner_winners(const std::string& dir) {
  std::map<std::string, std::string> winners;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".tile") continue;
    std::ifstream in(entry.path());
    std::map<std::string, std::string> fields;
    for (std::string line; std::getline(in, line);) {
      const auto eq = line.find('=');
      if (eq != std::string::npos) {
        fields[line.substr(0, eq)] = line.substr(eq + 1);
      }
    }
    winners[fields["key"]] = fields["mr"] + "x" + fields["nr"] + " blocks " +
                             fields["mc"] + "x" + fields["nc"];
  }
  return winners;
}

std::string manifest(const Run& run, const std::string& git_rev,
                     const std::string& tuner_dir) {
  const auto stats = dcn::kernels::TileTuner::global().stats();
  const char* forced = std::getenv("DCN_KERNEL_VARIANT");
  std::ostringstream os;
  os << "{\"workload\": " << json_string(run.workload)
     << ", \"seed\": " << run.seed
     << ", \"seconds\": " << json_number(run.seconds)
     << ", \"trace\": " << (run.traced() ? 1 : 0)
     << ", \"git_rev\": " << json_string(git_rev)
     << ", \"build_type\": " << json_string(HOSTBENCH_BUILD_TYPE)
     << ", \"compiler\": " << json_string(__VERSION__)
     << ", \"kernel_variant\": "
     << json_string(dcn::kernels::KernelRegistry::global().active().name)
     << ", \"kernel_variant_env\": "
     << json_string(forced != nullptr ? forced : "")
     << ", \"threads\": " << dcn::compute_threads()
     << ", \"tuner_cache_dir\": " << json_string(tuner_dir)
     << ", \"tuner_stats_at_setup\": {\"tuned\": " << run.tuner_at_setup.tuned
     << ", \"memo_hits\": " << run.tuner_at_setup.memo_hits
     << ", \"memo_misses\": " << run.tuner_at_setup.memo_misses << "}"
     << ", \"tuner_stats\": {\"memo_hits\": " << stats.memo_hits
     << ", \"memo_misses\": " << stats.memo_misses
     << ", \"disk_hits\": " << stats.disk_hits
     << ", \"disk_misses\": " << stats.disk_misses
     << ", \"corrupt_entries\": " << stats.corrupt_entries
     << ", \"tuned\": " << stats.tuned << "}, \"tuner_winners\": {";
  bool first = true;
  for (const auto& [key, tile] : tuner_winners(tuner_dir)) {
    os << (first ? "" : ", ") << json_string(key) << ": " << json_string(tile);
    first = false;
  }
  os << "}, \"checks\": " << run.results.checks() << ", \"metrics\": [";
  first = true;
  for (const auto& m : run.results.metrics()) {
    os << (first ? "" : ", ") << "{\"name\": " << json_string(m.name)
       << ", \"kind\": "
       << json_string(m.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer")
       << ", \"unit\": " << json_string(m.unit)
       << ", \"clock\": " << json_string(m.clock)
       << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

// The seven setup metrics: spans inside setup, or, for a layer the
// workload's setup never calls, the same spans in the traced profiles.
void report_setup_layers(Run& run) {
  for (const char* name :
       {"geo.synth", "detect.init", "graph.optimize", "detect.quantize"}) {
    auto [seconds, count] = run.tracer.total(name, run.setup_span);
    if (count == 0) seconds = run.tracer.total(name).first;
    run.results.add(Kind::kLayer, std::string(name) + "_s", seconds, "s",
                    "host", count);
  }
  const double cold = run.tracer.total("tensor.warmup.cold", run.setup_span).first;
  const double warm = run.tracer.total("tensor.warmup.warm", run.setup_span).first;
  run.results.add(Kind::kLayer, "tensor.tuner.cold_s", cold - warm, "s",
                  "host", 1);
  run.results.add(Kind::kLayer, "tensor.tuner.tuned",
                  static_cast<double>(run.tuner_at_setup.tuned), "count",
                  "host", 1);
  run.results.add(Kind::kLayer, "tensor.tuner.memo_hits",
                  static_cast<double>(run.tuner_at_setup.memo_hits), "count",
                  "host", 1);
}

void write_trace(Run& run, const std::string& path) {
  for (const auto& span : run.tracer.spans()) {
    run.recorder.record_lane_span(
        "host/" + span.layer, span.name, span.start, span.seconds(),
        "op " + std::to_string(span.op) + ", parent " +
            std::to_string(span.parent));
  }
  dcn::profiler::write_chrome_trace(run.recorder, path);
  std::printf("chrome trace: %s (%zu host spans)\n", path.c_str(),
              run.tracer.spans().size());
}

}  // namespace

int main(int argc, char** argv) {
  (void)hostbench::now();  // process-start reference for setup_s
  dcn::CliFlags flags("hostbench",
                      "host-clock benchmark of the drainage-crossing detector");
  flags.add_string("workload", "online", "online | scan | train");
  flags.add_int("seed", 1, "input seed");
  flags.add_double("seconds", 6.0, "measured seconds per run");
  flags.add_int("trace", 0, "1: traced run (per-layer metrics, chrome trace)");
  flags.add_string("tuner-dir", "", "fresh, empty tile-tuner cache directory");
  flags.add_string("trace-out", "hostbench.trace.json", "chrome trace path");
  flags.add_string("git-rev", "unknown", "source revision for the manifest");
  flags.add_string("inject", "",
                   "fault for the benchmark's own tests: flip-bit, "
                   "perturb-weight, perturb-int8-weight, shift-threshold");
  if (!flags.parse(argc, argv)) return 0;

  const std::string workload = flags.get_string("workload");
  const std::string tuner_dir = flags.get_string("tuner-dir");
  if (workload != "online" && workload != "scan" && workload != "train") {
    std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  std::error_code ec;
  if (tuner_dir.empty() || !std::filesystem::is_directory(tuner_dir, ec) ||
      !std::filesystem::is_empty(tuner_dir, ec)) {
    std::fprintf(stderr, "hostbench: --tuner-dir must name an existing, "
                         "empty directory\n");
    return 2;
  }

  dcn::set_log_level(dcn::LogLevel::kWarn);
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  dcn::set_num_threads(std::clamp(cores, 1, 4));
  auto& tuner = dcn::kernels::TileTuner::global();
  tuner.set_cache_dir(tuner_dir);
  tuner.set_enabled(true);
  tuner.reset_stats();

  Run run(workload, static_cast<std::uint64_t>(flags.get_int("seed")),
          flags.get_double("seconds"), flags.get_int("trace") != 0,
          flags.get_string("inject"));
  run.setup_span = run.tracer.begin("bench", "setup");
  try {
    if (workload == "online") {
      hostbench::run_online(run);
      if (run.traced()) {
        hostbench::profile_scan(run);
        hostbench::profile_train(run);
      }
    } else if (workload == "scan") {
      hostbench::run_scan(run);
      if (run.traced()) hostbench::profile_train(run);
    } else {
      hostbench::run_train(run);
      if (run.traced()) hostbench::profile_scan(run);
    }
    if (run.traced()) {
      hostbench::profile_graph(run);
      report_setup_layers(run);
      write_trace(run, flags.get_string("trace-out"));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  run.results.add(Kind::kEndToEnd, "peak_rss_mb", hostbench::peak_rss_mb(),
                  "MB", "host", 1);

  // Human-readable lines, then the manifest, then the result JSON.
  for (const auto& m : run.results.metrics()) {
    std::printf("%s %-40s %.6g %s (clock %s, %lld samples)\n",
                m.kind == Kind::kEndToEnd ? "e2e  " : "layer", m.name.c_str(),
                m.value, m.unit.c_str(), m.clock.c_str(),
                static_cast<long long>(m.samples));
  }
  std::printf("manifest %s\n",
              manifest(run, flags.get_string("git-rev"), tuner_dir).c_str());
  const Kind reported = run.traced() ? Kind::kLayer : Kind::kEndToEnd;
  std::ostringstream result;
  result << "{\"correct\": " << (run.results.ok() ? "true" : "false")
         << ", \"attempted\": " << std::max<std::int64_t>(run.results.attempted(), 1)
         << ", \"failed\": " << run.results.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : run.results.metrics()) {
    if (m.kind != reported) continue;
    result << (first ? "" : ", ") << json_string(m.name)
           << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return run.results.ok() ? 0 : 1;
}
