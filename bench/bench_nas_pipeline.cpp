// Reproduces the §5.3/§5.4 resource-aware NAS pipeline (Figure 5):
// random multi-trial search, real (reduced-schedule) training per trial,
// IOS-timed efficiency, and the accuracy-constrained selection
// max e(n) s.t. a(n) > A.
//
// The paper's outcome: NAS yields candidates at or above the hand-designed
// original's accuracy, and the constrained selection picks the most
// efficient of the accurate ones (SPP-Net #2 in Table 2). The analogous
// outcome here is that the selected trial satisfies the constraint and
// strictly maximizes throughput among qualifying trials.
#include <cstdio>
#include <fstream>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "core/time.hpp"
#include "detect/trainer.hpp"
#include "geo/dataset.hpp"
#include "nas/runner.hpp"
#include "nas/selection.hpp"

int main(int argc, char** argv) {
  using namespace dcn;
  CliFlags flags("bench_nas_pipeline", "Figure-5 NAS pipeline, end to end");
  flags.add_int("trials", 5, "NAS trials");
  flags.add_int("epochs", 8, "training epochs per trial");
  flags.add_int("patch", 40, "trial patch size");
  flags.add_double("threshold", 0.30, "accuracy constraint A");
  flags.add_int("seed", 2023, "seed");
  flags.add_int("jobs", 1, "worker threads evaluating trials concurrently");
  flags.add_string("csv", "nas_pipeline.csv", "trial CSV export");
  if (!flags.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kWarn);
  const int jobs = static_cast<int>(flags.get_int("jobs"));
  if (jobs > 1) {
    // Trial-level workers own the parallelism; keep the intra-trial loops
    // serial so jobs x set_num_threads stays at the core count.
    set_num_threads(1);
  }

  WallTimer timer;
  geo::DatasetConfig data_config;
  data_config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  data_config.patch_size = flags.get_int("patch");
  data_config.terrain.rows = data_config.terrain.cols = 512;
  const auto dataset = geo::DrainageDataset::synthesize(data_config);
  const geo::Split split = dataset.split(0.8, 3);
  std::printf(
      "NAS pipeline — random multi-trial over the §4.2 space\n"
      "dataset: %zu patches, %d epochs/trial, constraint AP > %.2f\n\n",
      dataset.size(), static_cast<int>(flags.get_int("epochs")),
      flags.get_double("threshold"));

  nas::Evaluator evaluator = [&](const detect::SppNetConfig& config) {
    Rng rng(11);
    detect::SppNet model(config, rng);
    detect::TrainConfig train_config;
    train_config.epochs = static_cast<int>(flags.get_int("epochs"));
    train_config.verbose = false;
    return detect::train_detector(model, dataset, split, train_config)
        .final_eval.average_precision;
  };

  nas::SearchSpace space;
  nas::RandomSearchStrategy strategy(
      space, static_cast<std::uint64_t>(flags.get_int("seed")));
  nas::RunnerConfig runner_config;
  runner_config.max_trials = static_cast<int>(flags.get_int("trials"));
  runner_config.input_size = data_config.patch_size;
  runner_config.verbose = false;
  runner_config.jobs = jobs;
  const nas::TrialDatabase db =
      nas::run_multi_trial(strategy, evaluator, runner_config);
  const double campaign_seconds = timer.seconds();

  TextTable table(
      {"Trial", "Architecture", "AP", "Latency (opt)", "Throughput"});
  for (const nas::Trial& t : db.trials()) {
    table.add_row({std::to_string(t.index), t.point.to_string(),
                   format_percent(t.metrics.average_precision),
                   format_ms(t.metrics.optimized_latency * 1e3),
                   format_double(t.metrics.throughput, 0) + " img/s"});
  }
  std::printf("%s", table.to_string().c_str());

  const auto best = nas::select_constrained(db, flags.get_double("threshold"));
  if (best) {
    std::printf("\nconstrained selection: trial %d [%s] — AP %s at %.0f "
                "img/s\n",
                best->index, best->point.to_string().c_str(),
                format_percent(best->metrics.average_precision).c_str(),
                best->metrics.throughput);
  } else {
    std::printf("\nno trial satisfied the constraint (rerun with more "
                "epochs/trials)\n");
  }
  std::printf("\ncampaign: %.1f s at %d job(s)\n", campaign_seconds, jobs);

  std::ofstream csv(flags.get_string("csv"));
  csv << db.to_csv();
  std::printf("CSV written to %s (total %.0f s)\n",
              flags.get_string("csv").c_str(), timer.seconds());
  return 0;
}
