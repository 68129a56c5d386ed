// Tests for the fleet self-healing layer: circuit breakers, health
// monitoring, chaos schedules, hedged requests, load shedding with INT8
// degradation, and the chaos acceptance scenario (crash storms + straggler
// waves + overload with zero accepted-request loss).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/retry.hpp"
#include "core/rng.hpp"
#include "graph/graph.hpp"
#include "ios/scheduler.hpp"
#include "profiler/trace.hpp"
#include "serve/chaos.hpp"
#include "serve/health.hpp"
#include "serve/hedge.hpp"
#include "serve/server.hpp"
#include "serve/shed.hpp"
#include "simgpu/device.hpp"

namespace dcn::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Same small branched CNN the serving tests use: enough structure for IOS,
// fast enough that chaos scenarios stay instant.
graph::Graph branched_graph() {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{16, 16, 16}});
  graph::OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 16;
  const auto trunk = g.add_op(graph::OpKind::kConv2d, "trunk", conv, {in},
                              graph::TensorDesc{{16, 16, 16}});
  std::vector<graph::OpId> outs;
  std::int64_t total = 0;
  for (int b = 0; b < 3; ++b) {
    graph::OpAttrs pool;
    pool.pool_out = b + 1;
    const auto p = g.add_op(
        graph::OpKind::kAdaptivePool, "pool" + std::to_string(b), pool,
        {trunk}, graph::TensorDesc{{16, b + 1, b + 1}});
    const auto f = g.add_op(
        graph::OpKind::kFlatten, "flat" + std::to_string(b), {}, {p},
        graph::TensorDesc{{16 * (b + 1) * (b + 1)}});
    outs.push_back(f);
    total += 16 * (b + 1) * (b + 1);
  }
  const auto concat = g.add_op(graph::OpKind::kConcat, "cat", {}, outs,
                               graph::TensorDesc{{total}});
  g.add_op(graph::OpKind::kOutput, "out", {}, {concat},
           graph::TensorDesc{{total}});
  return g;
}

ios::Schedule schedule_for(const graph::Graph& g) {
  return ios::optimize_schedule(g, simgpu::a5500_spec());
}

// A compute-bound graph for overload tests: the fleet starts warm, so the
// only way to back the queue up past the shed watermark is for bursts to
// genuinely outrun service capacity. On tiny_spec this serves a few
// hundred requests per second per replica.
graph::Graph compute_heavy_graph() {
  graph::Graph g;
  const auto in = g.add_op(graph::OpKind::kInput, "in", {}, {},
                           graph::TensorDesc{{64, 64, 64}});
  graph::OpAttrs conv;
  conv.kernel = 3;
  conv.stride = 1;
  conv.padding = 1;
  conv.out_channels = 64;
  auto prev = in;
  for (int i = 0; i < 2; ++i) {
    prev = g.add_op(graph::OpKind::kConv2d, "conv" + std::to_string(i), conv,
                    {prev}, graph::TensorDesc{{64, 64, 64}});
  }
  graph::OpAttrs pool;
  pool.pool_out = 1;
  const auto p = g.add_op(graph::OpKind::kAdaptivePool, "pool", pool, {prev},
                          graph::TensorDesc{{64, 1, 1}});
  const auto f = g.add_op(graph::OpKind::kFlatten, "flat", {}, {p},
                          graph::TensorDesc{{64}});
  g.add_op(graph::OpKind::kOutput, "out", {}, {f}, graph::TensorDesc{{64}});
  return g;
}

double service_seconds(const graph::Graph& g, const ios::Schedule& s,
                       std::int64_t batch) {
  simgpu::Device probe(simgpu::a5500_spec());
  return ios::measure_latency(g, s, probe, batch);
}

// --- SeededBackoff clamp (satellite) ---------------------------------------

TEST(SeededBackoff, JitterIsClampedStrictlyPositiveAndCapped) {
  // Base below the floor: the clamp keeps every delay >= 1 virtual ns.
  RetryPolicy tiny;
  tiny.base_backoff = 1.0e-12;
  tiny.multiplier = 1.0;
  tiny.max_backoff = 1.0;
  tiny.jitter = 0.999;
  SeededBackoff floor(tiny, 7);
  for (int retry = 1; retry <= 50; ++retry) {
    EXPECT_GE(floor.delay(retry), kMinBackoffSeconds);
  }
  // Base at the cap: jitter never pushes a delay above max_backoff.
  RetryPolicy capped;
  capped.base_backoff = 0.1;
  capped.multiplier = 4.0;
  capped.max_backoff = 0.1;
  capped.jitter = 0.9;
  SeededBackoff cap(capped, 11);
  for (int retry = 1; retry <= 50; ++retry) {
    const double d = cap.delay(retry);
    EXPECT_GE(d, kMinBackoffSeconds);
    EXPECT_LE(d, capped.max_backoff);
  }
}

TEST(SeededBackoff, SeededDelaySequenceIsPinned) {
  // A jittered delay sequence is a pure function of (policy, seed, draw
  // index): same seed replays the identical sequence, and reseeding
  // re-anchors it. (HealthMonitor.RespawnBudgetIsBoundedAndNotResetByRespawn
  // pins the jitter-free respawn ladder.)
  RetryPolicy policy;
  policy.base_backoff = 5.0e-3;
  policy.multiplier = 2.0;
  policy.max_backoff = 0.1;
  policy.jitter = 0.25;
  SeededBackoff a(policy, 0x5eed);
  SeededBackoff b(policy, 0x5eed);
  std::vector<double> sequence;
  for (int retry = 1; retry <= 8; ++retry) {
    const double da = a.delay(retry);
    EXPECT_DOUBLE_EQ(da, b.delay(retry));
    const double envelope = std::min(
        policy.base_backoff * std::pow(policy.multiplier, retry - 1),
        policy.max_backoff);
    EXPECT_GE(da, envelope * (1.0 - policy.jitter) - 1e-15);
    EXPECT_LE(da, std::min(envelope * (1.0 + policy.jitter),
                           policy.max_backoff));
    sequence.push_back(da);
  }
  a.reseed(0x5eed);
  for (int retry = 1; retry <= 8; ++retry) {
    EXPECT_DOUBLE_EQ(a.delay(retry),
                     sequence[static_cast<std::size_t>(retry - 1)]);
  }
}

// --- Batcher drops expired requests (satellite) ----------------------------

TEST(DynamicBatcher, ExpiredRequestsAreDroppedAtFormation) {
  DynamicBatcher batcher({/*max_batch=*/3, /*timeout=*/1.0}, 16);
  const auto offer = [&](std::int64_t id, double deadline) {
    Request r;
    r.id = id;
    r.arrival = 0.0;
    r.deadline = deadline;
    ASSERT_TRUE(batcher.offer(r));
  };
  offer(0, 0.5);   // expired at cut time 1.0
  offer(1, kInf);  // live
  offer(2, 0.9);   // expired
  offer(3, kInf);  // live: backfills an expired slot
  offer(4, kInf);  // live: backfills the other
  const Batch b = batcher.flush(1.0);
  ASSERT_EQ(b.requests.size(), 3u);
  EXPECT_EQ(b.requests[0].id, 1);
  EXPECT_EQ(b.requests[1].id, 3);
  EXPECT_EQ(b.requests[2].id, 4);
  ASSERT_EQ(b.expired.size(), 2u);
  EXPECT_EQ(b.expired[0].id, 0);
  EXPECT_EQ(b.expired[1].id, 2);
  EXPECT_EQ(batcher.expired_drops(), 2);
  EXPECT_TRUE(batcher.queue().empty());
}

TEST(DynamicBatcher, AllExpiredBatchHasNoLiveRequests) {
  DynamicBatcher batcher({/*max_batch=*/4, /*timeout=*/0.1}, 16);
  for (std::int64_t id = 0; id < 3; ++id) {
    Request r;
    r.id = id;
    r.deadline = 0.01;
    batcher.offer(r);
  }
  const Batch b = batcher.flush(5.0);
  EXPECT_TRUE(b.requests.empty());
  EXPECT_EQ(b.expired.size(), 3u);
  EXPECT_EQ(batcher.expired_drops(), 3);
}

TEST(DynamicBatcher, DrainEmptiesQueueWithoutCountingABatch) {
  DynamicBatcher batcher({/*max_batch=*/4, /*timeout=*/0.1}, 16);
  for (std::int64_t id = 0; id < 3; ++id) {
    Request r;
    r.id = id;
    batcher.offer(r);
  }
  const auto drained = batcher.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].id, 0);
  EXPECT_EQ(batcher.batches(), 0);
  EXPECT_TRUE(batcher.queue().empty());
}

// --- Circuit breaker FSM ---------------------------------------------------

// Three consecutive failures trip a breaker; it half-opens after 50 ms and
// closes after two half-open successes.
TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndCoolsDown) {
  CircuitBreaker breaker;

  EXPECT_EQ(breaker.state(0.0), BreakerState::kClosed);
  breaker.record_failure(1.0);
  breaker.record_failure(1.1);
  EXPECT_EQ(breaker.state(1.1), BreakerState::kClosed);
  // A success resets the consecutive-failure count.
  breaker.record_success(1.2);
  breaker.record_failure(1.3);
  breaker.record_failure(1.4);
  EXPECT_EQ(breaker.state(1.4), BreakerState::kClosed);
  breaker.record_failure(1.5);  // third consecutive: trips open
  EXPECT_EQ(breaker.state(1.5), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 1);
  EXPECT_FALSE(breaker.allows(1.52));
  EXPECT_DOUBLE_EQ(breaker.allows_at(1.52), 1.55);
  // Past the cool-down: half-open (derived from the clock, no event).
  EXPECT_EQ(breaker.state(1.55), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allows(1.55));
}

TEST(CircuitBreaker, HalfOpenClosesOnSuccessesAndReopensOnFailure) {
  CircuitBreaker breaker;
  breaker.record_failure(0.0);
  breaker.record_failure(0.0);
  breaker.record_failure(0.0);
  ASSERT_EQ(breaker.state(0.0), BreakerState::kOpen);

  // Half-open trial traffic fails: re-open with a fresh cool-down.
  breaker.record_failure(0.06);
  EXPECT_EQ(breaker.state(0.06), BreakerState::kOpen);
  EXPECT_EQ(breaker.opens(), 2);
  EXPECT_DOUBLE_EQ(breaker.allows_at(0.07), 0.11);

  // Half-open trial traffic succeeds twice: close.
  breaker.record_success(0.12);
  EXPECT_EQ(breaker.state(0.12), BreakerState::kHalfOpen);
  breaker.record_success(0.13);
  EXPECT_EQ(breaker.state(0.13), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allows(0.13));
}

// --- Health monitor --------------------------------------------------------

// A replica is suspect when its latency EWMA (alpha 0.3) exceeds 3x the
// fleet's fastest, once both have 3 samples; suspects are probed every 50 ms.
TEST(HealthMonitor, StragglerSuspicionAndRecovery) {
  HealthMonitor monitor(2);

  // Both replicas sampled fast: everyone healthy.
  for (int i = 0; i < 3; ++i) {
    monitor.observe_success(0, 1.0 + 0.1 * i, 0.010);
    monitor.observe_success(1, 1.05 + 0.1 * i, 0.010);
  }
  EXPECT_EQ(monitor.healthy_count(), 2);

  // Replica 1 slows: EWMA 0.3 * 0.100 + 0.7 * 0.010 = 0.037, past 3x the
  // fleet baseline of 0.010: suspect.
  monitor.observe_success(1, 2.0, 0.100);
  EXPECT_NEAR(monitor.latency_ewma(1), 0.037, 1e-12);
  EXPECT_EQ(monitor.state(1), ReplicaState::kSuspect);
  EXPECT_EQ(monitor.suspect_count(), 1);

  // Probe cadence: due immediately, then throttled for 50 ms.
  EXPECT_TRUE(monitor.probe_due(1, 2.0));
  monitor.note_probe(1, 2.0);
  EXPECT_FALSE(monitor.probe_due(1, 2.025));
  EXPECT_TRUE(monitor.probe_due(1, 2.055));

  // A fast probe decays the EWMA to 0.0289, back under the threshold:
  // recovered.
  monitor.observe_success(1, 3.0, 0.010);
  EXPECT_EQ(monitor.state(1), ReplicaState::kHealthy);

  // The transition log captured the round trip.
  ASSERT_EQ(monitor.transitions().size(), 2u);
  EXPECT_EQ(monitor.transitions()[0].to, ReplicaState::kSuspect);
  EXPECT_EQ(monitor.transitions()[1].to, ReplicaState::kHealthy);
}

// Each replica may respawn 3 times, after 5, 10 and 20 ms of backoff.
TEST(HealthMonitor, RespawnBudgetIsBoundedAndNotResetByRespawn) {
  HealthMonitor monitor(1);
  const double ladder[] = {5.0e-3, 1.0e-2, 2.0e-2};
  for (int restart = 1; restart <= 3; ++restart) {
    // The budget survives each respawn.
    monitor.mark_dead(0, restart, "crash");
    EXPECT_FALSE(monitor.alive(0));
    ASSERT_TRUE(monitor.can_respawn(0));
    EXPECT_DOUBLE_EQ(monitor.next_respawn_delay(0), ladder[restart - 1]);
    monitor.mark_respawned(0, restart + 0.1);
    EXPECT_TRUE(monitor.alive(0));
    EXPECT_EQ(monitor.restarts_used(0), restart);
  }

  // Fourth crash: budget spent, the replica is lost for good.
  monitor.mark_dead(0, 4.0, "crash");
  EXPECT_FALSE(monitor.can_respawn(0));
  monitor.mark_lost(0, 4.0, "respawn budget spent");
  EXPECT_EQ(monitor.dead_count(), 1);
  EXPECT_FALSE(monitor.alive(0));
}

// --- Chaos schedules -------------------------------------------------------

TEST(ChaosConfig, ParsesCampaignSpecs) {
  const auto config = ChaosConfig::parse(
      "crash:at=2,kills=2;crash:at=3,perm=0,victims=1+4;"
      "straggle:at=4,dur=2,count=3,factor=6",
      99);
  EXPECT_EQ(config.seed, 99u);
  ASSERT_EQ(config.storms.size(), 2u);
  EXPECT_DOUBLE_EQ(config.storms[0].time, 2.0);
  EXPECT_EQ(config.storms[0].kills, 2);
  EXPECT_TRUE(config.storms[0].permanent);
  EXPECT_FALSE(config.storms[1].permanent);
  ASSERT_EQ(config.storms[1].victims.size(), 2u);
  EXPECT_EQ(config.storms[1].victims[0], 1);
  ASSERT_EQ(config.waves.size(), 1u);
  EXPECT_DOUBLE_EQ(config.waves[0].onset, 4.0);
  EXPECT_DOUBLE_EQ(config.waves[0].duration, 2.0);
  EXPECT_EQ(config.waves[0].count, 3);
  EXPECT_DOUBLE_EQ(config.waves[0].factor, 6.0);
  EXPECT_TRUE(ChaosConfig::parse("").empty());

  EXPECT_THROW(ChaosConfig::parse("meteor:at=1"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:kills=2"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("straggle:at=1"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("straggle:at=1,dur=1,factor=0.5"),
               ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:at=bogus"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:at"), ConfigError);
}

// Counts and victim indices must not be truncated from doubles.
TEST(ChaosConfig, RejectsNonWholeCounts) {
  EXPECT_THROW(ChaosConfig::parse("crash:at=1,kills=2.9"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("straggle:at=1,dur=1,count=1.5"),
               ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:at=1,victims=0.7"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:at=1,victims=1+2.5"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:at=1,kills=-1,victims=0"),
               ConfigError);
  EXPECT_THROW(ChaosConfig::parse("straggle:at=1,dur=1,count=-1"),
               ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:at=1,kills=1e10"), ConfigError);
  EXPECT_THROW(ChaosConfig::parse("crash:at=1,kills=nan"), ConfigError);
  const auto config = ChaosConfig::parse("crash:at=1,kills=0,victims=0+3");
  ASSERT_EQ(config.storms.size(), 1u);
  EXPECT_EQ(config.storms[0].kills, 0);
  EXPECT_EQ(config.storms[0].victims, (std::vector<int>{0, 3}));
}

// Seeded property test over the grammar's tokens: parse returns or throws
// dcn::Error, and a spec that gives kills, count or a victim anything but a
// whole number >= 0 that fits an int is rejected.
TEST(ChaosConfig, RandomSpecsParseOrThrowAndKeepCountsWhole) {
  const std::vector<std::string> kinds = {"crash", "straggle", "meteor"};
  const std::vector<std::string> keys = {"at",    "victims", "kills", "perm",
                                         "dur",   "count",   "factor", "x"};
  const std::vector<std::string> values = {
      "0",   "1",    "2",     "3",   "-1",  "0.7", "2.9", "1e300",
      "nan", "inf",  "",      "abc", "1+2", "0+0", "1+2.5"};
  const auto whole = [](const std::string& v) {
    return v == "0" || v == "1" || v == "2" || v == "3";
  };
  const auto whole_list = [&](const std::string& v) {
    return whole(v) || v == "1+2" || v == "0+0";
  };
  Rng rng(2024);
  const auto pick = [&](const std::vector<std::string>& from) {
    return from[rng.index(from.size())];
  };
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string spec;
    bool must_throw = false;
    const std::int64_t campaigns = rng.uniform_int(1, 3);
    for (std::int64_t c = 0; c < campaigns; ++c) {
      if (c > 0) spec += ';';
      spec += pick(kinds);
      // Most campaigns lead with at= and a straggle's dur=, so a fair share
      // of specs parse.
      const std::int64_t pairs = rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < pairs; ++k) {
        const std::string key = k == 0 && rng.bernoulli(0.8)   ? "at"
                                : k == 1 && rng.bernoulli(0.8) ? "dur"
                                                               : pick(keys);
        const std::string value = pick(values);
        spec += (k == 0 ? ":" : ",") + key + "=" + value;
        must_throw |= ((key == "kills" || key == "count") && !whole(value)) ||
                      (key == "victims" && !whole_list(value));
      }
    }
    try {
      const ChaosConfig config = ChaosConfig::parse(spec, 7);
      EXPECT_FALSE(must_throw) << spec;
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // The draw exercises both outcomes.
  EXPECT_GT(parsed, 50);
  EXPECT_GT(rejected, 100);
}

TEST(ChaosConfig, MaterializationIsDeterministicAndValidated) {
  ChaosConfig config;
  config.seed = 7;
  CrashStorm storm;
  storm.time = 1.0;
  storm.kills = 3;
  config.storms.push_back(storm);
  StragglerWave wave;
  wave.onset = 2.0;
  wave.duration = 1.0;
  wave.count = 2;
  wave.factor = 8.0;
  config.waves.push_back(wave);

  const auto a = materialize_chaos(config, 8);
  const auto b = materialize_chaos(config, 8);
  ASSERT_EQ(a.size(), 8u);
  int deaths = 0;
  int stragglers = 0;
  for (std::size_t r = 0; r < a.size(); ++r) {
    // Same (config, replicas) -> byte-identical plans.
    EXPECT_EQ(a[r].seed, b[r].seed);
    ASSERT_EQ(a[r].rules.size(), b[r].rules.size());
    if (std::isfinite(a[r].death_time())) {
      ++deaths;
      EXPECT_DOUBLE_EQ(a[r].death_time(), 1.0);
      EXPECT_EQ(a[r].death_budget(), -1);
      EXPECT_DOUBLE_EQ(a[r].death_time(), b[r].death_time());
    }
    if (a[r].straggler_factor(2.5) > 1.0) {
      ++stragglers;
      EXPECT_DOUBLE_EQ(a[r].straggler_factor(2.5), 8.0);
      EXPECT_DOUBLE_EQ(a[r].straggler_factor(3.5), 1.0);  // window closed
    }
  }
  EXPECT_EQ(deaths, 3);      // distinct victims, drawn without replacement
  EXPECT_EQ(stragglers, 2);

  // Validation: oversubscribed storms and bad victim lists are rejected.
  ChaosConfig bad = config;
  bad.storms[0].kills = 9;
  EXPECT_THROW(materialize_chaos(bad, 8), ConfigError);
  bad = config;
  bad.storms[0].victims = {0, 0};
  EXPECT_THROW(materialize_chaos(bad, 8), ConfigError);
  bad = config;
  bad.storms[0].victims = {8};
  EXPECT_THROW(materialize_chaos(bad, 8), ConfigError);
}

// --- Load shedder ----------------------------------------------------------

TEST(LoadShedder, HysteresisAndDwell) {
  ShedPolicy policy;
  policy.enabled = true;
  policy.degrade_watermark = 0.75;
  policy.restore_watermark = 0.25;
  LoadShedder shedder(policy);

  EXPECT_FALSE(shedder.update(0.0, 0.5));
  EXPECT_TRUE(shedder.update(0.02, 0.8));  // crosses the high watermark
  EXPECT_TRUE(shedder.degraded());
  // Dwell guard: occupancy already back down, but too soon to restore.
  EXPECT_FALSE(shedder.update(0.025, 0.1));
  EXPECT_TRUE(shedder.degraded());
  EXPECT_TRUE(shedder.update(0.04, 0.1));  // dwell elapsed: restore
  EXPECT_FALSE(shedder.degraded());
  EXPECT_EQ(shedder.degrade_entries(), 1);
  EXPECT_NEAR(shedder.degraded_seconds(1.0), 0.02, 1e-12);

  EXPECT_THROW(LoadShedder(ShedPolicy{.degrade_watermark = 0.2,
                                      .restore_watermark = 0.5}),
               ConfigError);
}

// --- Hedge controller ------------------------------------------------------

// Hedging arms after 20 observed services; the delay is
// max(100 us, factor * p95).
TEST(HedgeController, ArmsAfterMinSamplesAndDerivesDelay) {
  HedgePolicy policy;
  policy.enabled = true;
  policy.factor = 2.0;
  HedgeController hedges(policy);
  for (int i = 0; i < 19; ++i) hedges.observe(0.010);
  EXPECT_FALSE(hedges.delay().has_value());
  hedges.observe(0.010);
  ASSERT_TRUE(hedges.delay().has_value());
  EXPECT_NEAR(*hedges.delay(), 0.020, 1e-3);
  EXPECT_FALSE(hedges.should_hedge(0.015));
  EXPECT_TRUE(hedges.should_hedge(0.050));

  HedgeController disabled{HedgePolicy{}};
  disabled.observe(1.0);
  EXPECT_FALSE(disabled.delay().has_value());
}

// --- Fleet serving scenarios ----------------------------------------------

TrafficConfig light_traffic(double service, double duration = 5.0) {
  TrafficConfig traffic;
  traffic.seed = 21;
  traffic.duration = duration;
  traffic.rate = 1.0 / (20.0 * (service + 4.0e-3));
  traffic.deadline = 0.25;
  return traffic;
}

// Chaos determinism. Run-to-run: the same (config, trace, seed) replays the
// completion CSV byte-for-byte, straggler waves and mid-trace crashes
// included. Across replica counts the invariance holds for crash-only
// chaos under light load (crashes land between batches, so replica
// identity never leaks into the log); straggler waves are exempt by
// design — a slowdown is a property of the replica that serves, so which
// fleet size you run legitimately changes who straggles.
TEST(ChaosServe, CompletionLogIsByteIdenticalAcrossRunsAndReplicaCounts) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  const double service = service_seconds(g, s, 8);
  const auto trace = generate_trace(light_traffic(service));
  ASSERT_GT(trace.size(), 10u);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.faults.seed = 77;
  config.faults.fail_with_probability(simgpu::FaultKind::kLaunchFailure, 0.05,
                                      -1);
  config.resilient.retry.max_attempts = 6;
  config.resilient.retry.base_backoff = 1.0e-4;
  config.resilient.retry.max_backoff = 5.0e-4;
  config.resilient.retry.jitter = 0.5;

  auto run = [&](int replicas, const std::string& chaos) {
    ServerConfig c = config;
    c.replicas = replicas;
    c.fleet.chaos = ChaosConfig::parse(chaos, 5);
    Server server(g, s, c);
    const ServingReport report = server.serve(trace);
    EXPECT_EQ(report.failed, 0);
    EXPECT_GE(report.deaths, 1);
    return Server::log_to_csv(server.log());
  };

  // Run-to-run determinism under the full chaos mix (crash + straggler).
  const std::string full =
      "crash:at=2,victims=0;straggle:at=3,dur=1,factor=3,victims=1";
  EXPECT_EQ(run(2, full), run(2, full));

  // Replica-count invariance under crash-only chaos.
  const std::string crash_only = "crash:at=2,victims=0";
  const std::string two = run(2, crash_only);
  EXPECT_EQ(two, run(4, crash_only));
  EXPECT_NE(two.find("served_precision,hedged"), std::string::npos);
}

// Crash storms never lose accepted requests while any replica survives:
// batches in flight on a dying replica are re-dispatched to survivors.
TEST(ChaosServe, CrashStormLosesNoAcceptedRequests) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 13;
  traffic.duration = 4.0;
  traffic.rate = 300.0;  // keeps replicas busy so crashes land mid-service
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.replicas = 4;
  config.fleet.chaos =
      ChaosConfig::parse("crash:at=1,victims=0;crash:at=2,victims=2", 3);
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);

  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.deadline_expired, 0);  // no deadlines configured
  EXPECT_EQ(report.completed, report.admitted);
  EXPECT_EQ(report.replicas_lost, 2);  // permanent: respawn budget spent
  EXPECT_GE(report.deaths, 2);
  EXPECT_GT(report.respawn_attempts, 0);
  EXPECT_EQ(report.respawns, 0);  // every restart re-crashes
  EXPECT_GT(report.time_to_recovery, 0.0);
  // Re-dispatched batches carry their attempt count into the log.
  bool saw_redispatch = false;
  for (const CompletionRecord& r : server.log()) {
    if (r.dispatch_attempts > 1) saw_redispatch = true;
  }
  EXPECT_EQ(saw_redispatch, report.crash_redispatches > 0);
}

// A transient (one-shot) crash respawns within the restart budget and the
// replica rejoins the fleet.
TEST(ChaosServe, TransientCrashRespawnsAndRejoins) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 17;
  traffic.duration = 3.0;
  traffic.rate = 200.0;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.replicas = 2;
  config.fleet.chaos = ChaosConfig::parse("crash:at=1,perm=0,victims=0", 1);
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);

  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.deaths, 1);
  EXPECT_EQ(report.respawns, 1);
  EXPECT_EQ(report.replicas_lost, 0);
  // The transition log shows the full dead -> healthy round trip.
  bool died = false;
  bool rejoined = false;
  for (const HealthTransition& t : server.health_transitions()) {
    if (t.to == ReplicaState::kDead && t.replica == 0) died = true;
    if (died && t.to == ReplicaState::kHealthy && t.replica == 0) {
      rejoined = true;
    }
  }
  EXPECT_TRUE(died);
  EXPECT_TRUE(rejoined);
}

// Hedged requests: a straggler wave slows one replica; slow primaries race
// a hedge on a survivor, the first completion wins, and the duplicate is
// suppressed so exactly one record per request remains.
TEST(ChaosServe, HedgesRaceStragglersAndSuppressDuplicates) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 29;
  traffic.duration = 6.0;
  traffic.rate = 250.0;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.replicas = 3;
  config.fleet.hedge.enabled = true;
  config.fleet.hedge.factor = 1.5;
  config.fleet.chaos =
      ChaosConfig::parse("straggle:at=2,dur=3,factor=25,victims=0", 9);
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);

  EXPECT_EQ(report.failed, 0);
  EXPECT_GT(report.hedges_launched, 0);
  EXPECT_GT(report.hedges_won, 0);
  EXPECT_GE(report.hedges_launched, report.hedges_won);
  EXPECT_GT(report.duplicates_suppressed, 0);
  // Exactly one record per offered request despite the duplicates.
  EXPECT_EQ(server.log().size(), trace.size());
  std::int64_t hedged_requests = 0;
  for (const CompletionRecord& r : server.log()) {
    if (r.hedged) ++hedged_requests;
  }
  EXPECT_GT(hedged_requests, 0);
  // The wave shows up in the health log as suspect transitions.
  bool suspected = false;
  for (const HealthTransition& t : server.health_transitions()) {
    if (t.to == ReplicaState::kSuspect) suspected = true;
  }
  EXPECT_TRUE(suspected);
}

// Load shedding: overload degrades admitted traffic onto the INT8 pool
// before rejecting; served_precision reconciles with the degrade counters.
TEST(ChaosServe, OverloadDegradesToInt8PoolBeforeRejecting) {
  // Compute-bound graph on the slow device: a warm fleet of four serves
  // ~1.5k req/s, so the 3x bursts overrun it and back the queue up past
  // the degrade watermark.
  const auto g = compute_heavy_graph();
  const auto s = ios::optimize_schedule(g, simgpu::tiny_spec());
  TrafficConfig traffic;
  traffic.seed = 31;
  traffic.duration = 4.0;
  traffic.rate = 800.0;
  traffic.burst_factor = 3.0;
  traffic.burst_period = 2.0;
  traffic.burst_duty = 0.4;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 32;
  config.replicas = 4;
  config.device = simgpu::tiny_spec();
  config.precision = simgpu::Precision::kFp32;
  config.replica_precisions = {
      simgpu::Precision::kFp32, simgpu::Precision::kFp32,
      simgpu::Precision::kInt8, simgpu::Precision::kInt8};
  config.fleet.shed.enabled = true;
  config.fleet.shed.degrade_watermark = 0.5;
  config.fleet.shed.restore_watermark = 0.125;
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);

  EXPECT_GT(report.shed_degrade_entries, 0);
  EXPECT_GT(report.degraded_seconds, 0.0);
  EXPECT_GT(report.degraded_served, 0);
  // served_precision reconciles with the aggregate counter, record by
  // record and in the CSV rendering.
  std::int64_t int8_served = 0;
  for (const CompletionRecord& r : server.log()) {
    if (r.status == RequestStatus::kCompleted &&
        r.precision == simgpu::Precision::kInt8) {
      ++int8_served;
    }
  }
  EXPECT_EQ(int8_served, report.degraded_served);
  const std::string csv = Server::log_to_csv(server.log());
  EXPECT_NE(csv.find(",int8,"), std::string::npos);
}

// When every replica dies with the budget spent and arrivals stop, the
// queue drains into failed records: requests are never silently dropped.
TEST(ChaosServe, FleetExtinctionFailsQueuedRequestsExplicitly) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 37;
  traffic.duration = 2.0;
  traffic.rate = 200.0;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.replicas = 2;
  config.fleet.chaos = ChaosConfig::parse("crash:at=1,victims=0+1", 1);
  Server server(g, s, config);
  const ServingReport report = server.serve(trace);

  EXPECT_EQ(report.replicas_lost, 2);
  EXPECT_GT(report.failed, 0);
  EXPECT_EQ(report.admitted,
            report.completed + report.deadline_expired + report.failed);
  // Every request still gets exactly one record.
  EXPECT_EQ(server.log().size(), trace.size());
}

// The acceptance scenario pinned by ISSUE 6 and BENCH_chaos: 8 replicas, a
// storm kills two permanently, a straggler wave slows two more, load
// doubles through a burst — and the fleet still loses nothing it accepted,
// recovers in bounded virtual time, and holds SLO attainment within 10
// points of the fault-free run.
TEST(ChaosServe, AcceptanceScenarioHoldsSloWithinTenPointsOfFaultFree) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 42;
  traffic.duration = 8.0;
  traffic.rate = 400.0;
  traffic.burst_factor = 1.0;  // doubled load over the burst window
  traffic.burst_period = 4.0;
  traffic.burst_duty = 0.5;
  traffic.deadline = 0.100;
  const auto trace = generate_trace(traffic);

  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.replicas = 8;
  config.fleet.hedge.enabled = true;
  config.fleet.hedge.factor = 2.0;

  // Fault-free baseline.
  Server baseline(g, s, config);
  const ServingReport clean = baseline.serve(trace);
  ASSERT_EQ(clean.failed, 0);

  // Chaos run: kill 2 of 8 for good at t=2, straggle 2 more over [4, 6).
  ServerConfig chaos = config;
  chaos.fleet.chaos = ChaosConfig::parse(
      "crash:at=2,kills=2;straggle:at=4,dur=2,count=2,factor=8", 1234);
  Server server(g, s, chaos);
  const ServingReport report = server.serve(trace);

  EXPECT_EQ(report.failed, 0);  // zero accepted-request loss
  EXPECT_EQ(report.replicas_lost, 2);
  EXPECT_GT(report.deaths, 0);
  EXPECT_GT(report.goodput(), 0.0);
  // Bounded recovery: the health log settles within the run.
  EXPECT_LT(report.time_to_recovery, traffic.duration);
  // SLO attainment within 10 points of the fault-free run.
  EXPECT_GE(report.slo_attainment(), clean.slo_attainment() - 0.10);
}

// Fleet events flow into the profiler: instant events for health
// transitions and a chrome trace that carries them.
TEST(ChaosServe, FleetEventsAppearInProfilerTrace) {
  const auto g = branched_graph();
  const auto s = schedule_for(g);
  TrafficConfig traffic;
  traffic.seed = 3;
  traffic.duration = 2.0;
  traffic.rate = 200.0;
  const auto trace = generate_trace(traffic);

  profiler::Recorder recorder;
  ServerConfig config;
  config.batch = {8, 2.0e-3};
  config.queue_capacity = 64;
  config.replicas = 2;
  config.fleet.chaos = ChaosConfig::parse("crash:at=1,perm=0,victims=0", 1);
  Server server(g, s, config, &recorder);
  server.serve(trace);

  bool saw_dead = false;
  bool saw_respawn = false;
  for (const auto& event : recorder.instant_events()) {
    if (event.name == "replica.dead") saw_dead = true;
    if (event.name == "replica.respawn") saw_respawn = true;
  }
  EXPECT_TRUE(saw_dead);
  EXPECT_TRUE(saw_respawn);

  const std::string json = profiler::to_chrome_trace(recorder);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("replica.dead"), std::string::npos);
  EXPECT_NE(json.find("fleet.healthy_replicas"), std::string::npos);
}

}  // namespace
}  // namespace dcn::serve
