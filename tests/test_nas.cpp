// Tests for NAS: search space, strategies, runner, constrained and
// latency-budget selection, experiment persistence.
#include <gtest/gtest.h>

#include <set>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "nas/experiment.hpp"
#include "nas/runner.hpp"
#include "nas/selection.hpp"
#include "nas/strategy.hpp"

namespace dcn::nas {
namespace {

SearchSpace small_space() {
  SearchSpace space;
  space.conv1_kernels = {3, 5};
  space.spp_first_levels = {2, 4};
  space.fc_widths = {64, 128};
  space.num_fc_layers = 1;
  return space;
}

TEST(SearchSpace, SizeAndEnumerationAgree) {
  const SearchSpace paper;  // defaults = the paper's §4.2 space
  EXPECT_EQ(paper.size(), 5 * 5 * 7);
  EXPECT_EQ(static_cast<std::int64_t>(paper.enumerate().size()),
            paper.size());
  const SearchSpace space = small_space();
  EXPECT_EQ(space.size(), 8);
  EXPECT_EQ(space.enumerate().size(), 8u);
}

TEST(SearchSpace, TwoFcLayersMultiplyCardinality) {
  SearchSpace space = small_space();
  space.num_fc_layers = 2;
  EXPECT_EQ(space.size(), 2 * 2 * 4);
  const auto points = space.enumerate();
  EXPECT_EQ(points.size(), 16u);
  for (const SearchPoint& p : points) {
    EXPECT_EQ(p.fc_sizes.size(), 2u);
    EXPECT_TRUE(space.contains(p));
  }
}

TEST(SearchSpace, SampleStaysInSpace) {
  const SearchSpace space = small_space();
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(space.contains(space.sample(rng)));
  }
}

TEST(SearchSpace, ContainsRejectsForeignPoints) {
  const SearchSpace space = small_space();
  SearchPoint p;
  p.conv1_kernel = 7;  // not in {3, 5}
  p.spp_first_level = 2;
  p.fc_sizes = {64};
  EXPECT_FALSE(space.contains(p));
  p.conv1_kernel = 3;
  p.fc_sizes = {64, 128};  // wrong layer count
  EXPECT_FALSE(space.contains(p));
}

TEST(Materialize, ProducesPaperTrunkAndSppLevels) {
  SearchPoint p;
  p.conv1_kernel = 5;
  p.spp_first_level = 5;
  p.fc_sizes = {4096};
  const detect::SppNetConfig config = materialize(p);
  EXPECT_EQ(config.trunk[0].conv.kernel, 5);
  EXPECT_EQ(config.trunk[0].conv.filters, 64);
  EXPECT_EQ(config.spp_levels, (std::vector<std::int64_t>{5, 2, 1}));
  EXPECT_EQ(config.fc_sizes, (std::vector<std::int64_t>{4096}));
  // conv1_kernel=3, spp=5, fc=4096 reproduces SPP-Net #2's notation.
  SearchPoint p2;
  p2.conv1_kernel = 3;
  p2.spp_first_level = 5;
  p2.fc_sizes = {4096};
  EXPECT_EQ(materialize(p2).to_notation(),
            detect::sppnet_candidate2().to_notation());
}

TEST(RandomStrategy, NoRepeatsUntilExhaustion) {
  RandomSearchStrategy strategy(small_space(), 7);
  std::set<std::string> seen;
  for (int i = 0; i < 8; ++i) {
    const auto point = strategy.next();
    ASSERT_TRUE(point.has_value()) << "exhausted early at " << i;
    EXPECT_TRUE(seen.insert(point->to_string()).second)
        << "repeat: " << point->to_string();
  }
  EXPECT_FALSE(strategy.next().has_value());
}

TEST(RandomStrategy, DeterministicGivenSeed) {
  RandomSearchStrategy a(small_space(), 11);
  RandomSearchStrategy b(small_space(), 11);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next()->to_string(), b.next()->to_string());
  }
}

TEST(GridStrategy, CoversSpaceInOrder) {
  GridSearchStrategy strategy(small_space());
  std::set<std::string> seen;
  for (int i = 0; i < 8; ++i) {
    const auto point = strategy.next();
    ASSERT_TRUE(point.has_value());
    seen.insert(point->to_string());
  }
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_FALSE(strategy.next().has_value());
}

TEST(TrialDatabase, RankingAndCsv) {
  TrialDatabase db;
  for (int i = 0; i < 3; ++i) {
    Trial t;
    t.index = i;
    t.point.conv1_kernel = 3;
    t.point.spp_first_level = i + 1;
    t.point.fc_sizes = {128};
    t.metrics.average_precision = 0.90 + 0.02 * i;
    t.metrics.throughput = 3000.0 - 500.0 * i;
    db.add(t);
  }
  EXPECT_EQ(db.best_by_accuracy()->index, 2);
  EXPECT_EQ(db.best_by_throughput()->index, 0);
  const std::string csv = db.to_csv();
  EXPECT_NE(csv.find("average_precision"), std::string::npos);
  EXPECT_NE(csv.find("0.9400"), std::string::npos);
  EXPECT_THROW(db.trial(5), dcn::Error);
}

TEST(Runner, ProfilesAndEvaluatesEachTrial) {
  GridSearchStrategy strategy(small_space());
  RunnerConfig config;
  config.max_trials = 4;
  config.input_size = 32;
  config.verbose = false;
  int evaluations = 0;
  const TrialDatabase db = run_multi_trial(
      strategy,
      [&](const detect::SppNetConfig& model) {
        ++evaluations;
        // Proxy accuracy: larger models score higher.
        return 0.9 + 1e-9 * static_cast<double>(model.parameter_count());
      },
      config);
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(evaluations, 4);
  for (const Trial& t : db.trials()) {
    EXPECT_GT(t.metrics.optimized_latency, 0.0);
    EXPECT_LE(t.metrics.optimized_latency, t.metrics.sequential_latency);
    EXPECT_GT(t.metrics.throughput, 0.0);
    EXPECT_GT(t.metrics.parameter_count, 0);
  }
}

TEST(Runner, StopsWhenSpaceExhausted) {
  GridSearchStrategy strategy(small_space());
  RunnerConfig config;
  config.max_trials = 100;  // more than the 8-point space
  config.input_size = 32;
  config.verbose = false;
  const TrialDatabase db = run_multi_trial(
      strategy, [](const detect::SppNetConfig&) { return 0.5; }, config);
  EXPECT_EQ(db.size(), 8u);
}

TrialDatabase synthetic_db() {
  TrialDatabase db;
  const double ap[4] = {0.98, 0.96, 0.93, 0.90};
  const double tput[4] = {1000.0, 2500.0, 4000.0, 3000.0};
  for (int i = 0; i < 4; ++i) {
    Trial t;
    t.index = i;
    t.point.fc_sizes = {128};
    t.metrics.average_precision = ap[i];
    t.metrics.throughput = tput[i];
    db.add(t);
  }
  return db;
}

TEST(Selection, ConstrainedPicksMostEfficientAboveThreshold) {
  const TrialDatabase db = synthetic_db();
  // Threshold 0.95: candidates {0, 1}; pick the faster one (#1).
  const auto pick = select_constrained(db, 0.95);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->index, 1);
  // Threshold 0.92: candidate #2 has the best throughput overall.
  EXPECT_EQ(select_constrained(db, 0.92)->index, 2);
  // Impossible threshold.
  EXPECT_FALSE(select_constrained(db, 0.99).has_value());
}

TEST(Selection, ConstraintIsStrict) {
  const TrialDatabase db = synthetic_db();
  // a(n) > A is strict: threshold exactly 0.98 excludes trial 0.
  EXPECT_FALSE(select_constrained(db, 0.98).has_value());
}

TEST(Selection, ParetoFrontExcludesDominated) {
  const TrialDatabase db = synthetic_db();
  const auto front = pareto_front(db);
  // Trial 3 (0.90 AP, 3000/s) is dominated by trial 2 (0.93, 4000).
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0].index, 0);  // sorted by descending AP
  EXPECT_EQ(front[1].index, 1);
  EXPECT_EQ(front[2].index, 2);
}

nas::SearchSpace evolution_space() {
  nas::SearchSpace space;
  space.conv1_kernels = {3, 5, 7};
  space.spp_first_levels = {1, 3, 5};
  space.fc_widths = {128, 512, 2048};
  return space;
}

TEST(Evolution, WarmupThenMutation) {
  nas::EvolutionStrategy::Options options;
  options.population = 4;
  options.tournament = 2;
  nas::EvolutionStrategy strategy(evolution_space(), 3, options);
  // Warm-up proposals, reported with a fitness that favors spp level 5.
  std::vector<nas::SearchPoint> proposed;
  for (int i = 0; i < 12; ++i) {
    const auto point = strategy.next();
    ASSERT_TRUE(point.has_value());
    proposed.push_back(*point);
    strategy.report(*point,
                    0.5 + 0.1 * static_cast<double>(point->spp_first_level));
  }
  // Children after warm-up must differ from their parents on at most one
  // axis (mutation changes exactly one axis).
  for (std::size_t i = 4; i < proposed.size(); ++i) {
    EXPECT_TRUE(evolution_space().contains(proposed[i]));
  }
  // Selection pressure: later proposals lean toward high spp levels.
  double early = 0.0;
  double late = 0.0;
  for (int i = 0; i < 4; ++i) early += proposed[static_cast<std::size_t>(i)].spp_first_level;
  for (int i = 8; i < 12; ++i) late += proposed[static_cast<std::size_t>(i)].spp_first_level;
  EXPECT_GE(late, early * 0.8);  // no collapse toward low-fitness region
}

TEST(Evolution, DeterministicGivenSeed) {
  nas::EvolutionStrategy a(evolution_space(), 7);
  nas::EvolutionStrategy b(evolution_space(), 7);
  for (int i = 0; i < 10; ++i) {
    const auto pa = a.next();
    const auto pb = b.next();
    ASSERT_TRUE(pa && pb);
    EXPECT_EQ(pa->to_string(), pb->to_string());
    a.report(*pa, 0.5);
    b.report(*pb, 0.5);
  }
}

TEST(Selection, LatencyBudgetPicksMostAccurateUnderBudget) {
  nas::TrialDatabase db;
  const double ap[3] = {0.98, 0.95, 0.90};
  const double lat[3] = {5e-4, 3e-4, 1e-4};
  for (int i = 0; i < 3; ++i) {
    nas::Trial t;
    t.index = i;
    t.point.fc_sizes = {128};
    t.metrics.average_precision = ap[i];
    t.metrics.optimized_latency = lat[i];
    db.add(t);
  }
  EXPECT_EQ(nas::select_latency_budget(db, 4e-4)->index, 1);
  EXPECT_EQ(nas::select_latency_budget(db, 1e-3)->index, 0);
  EXPECT_FALSE(nas::select_latency_budget(db, 5e-5).has_value());
}

nas::TrialDatabase sample_experiment() {
  nas::TrialDatabase db;
  for (int i = 0; i < 3; ++i) {
    nas::Trial t;
    t.index = i;
    t.point.conv1_kernel = 3 + 2 * i;
    t.point.spp_first_level = i + 1;
    t.point.fc_sizes = {128ll << i};
    t.metrics.average_precision = 0.9 + 0.01 * i;
    t.metrics.sequential_latency = 5e-4 + 1e-5 * i;
    t.metrics.optimized_latency = 3e-4 + 1e-5 * i;
    t.metrics.throughput = 3000.0 - 100.0 * i;
    t.metrics.parameter_count = 1000000 + i;
    db.add(t);
  }
  return db;
}

TEST(Experiment, RoundTripPreservesEverything) {
  const nas::TrialDatabase db = sample_experiment();
  const std::string text = nas::serialize_experiment(db);
  const nas::TrialDatabase back = nas::deserialize_experiment(text);
  ASSERT_EQ(back.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(back.trial(i).index, db.trial(i).index);
    EXPECT_EQ(back.trial(i).point, db.trial(i).point);
    EXPECT_DOUBLE_EQ(back.trial(i).metrics.average_precision,
                     db.trial(i).metrics.average_precision);
    EXPECT_DOUBLE_EQ(back.trial(i).metrics.optimized_latency,
                     db.trial(i).metrics.optimized_latency);
    EXPECT_EQ(back.trial(i).metrics.parameter_count,
              db.trial(i).metrics.parameter_count);
  }
}

TEST(Experiment, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/dcn_experiment.txt";
  nas::save_experiment(sample_experiment(), path);
  const nas::TrialDatabase back = nas::load_experiment(path);
  EXPECT_EQ(back.size(), 3u);
}

TEST(Experiment, RejectsMalformedInput) {
  EXPECT_THROW(nas::deserialize_experiment("garbage"), Error);
  EXPECT_THROW(
      nas::deserialize_experiment("nas-experiment v1\ntrial x\n"), Error);
  EXPECT_THROW(nas::deserialize_experiment(
                   "nas-experiment v1\ntrial 0 conv1 3 spp 2 fc 99\n"),
               Error);
}

}  // namespace
}  // namespace dcn::nas
