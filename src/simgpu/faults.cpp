#include "simgpu/faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/error.hpp"

namespace dcn::simgpu {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLaunchFailure:
      return "launch_failure";
    case FaultKind::kMemcpyCorruption:
      return "memcpy_corruption";
    case FaultKind::kMemcpySlowdown:
      return "memcpy_slowdown";
    case FaultKind::kAllocFailure:
      return "alloc_failure";
    case FaultKind::kSyncHang:
      return "sync_hang";
    case FaultKind::kReplicaDeath:
      return "replica_death";
    case FaultKind::kStraggler:
      return "straggler";
  }
  return "unknown";
}

FaultPlan& FaultPlan::fail_at(FaultKind kind, std::int64_t at_op,
                              int max_fires) {
  FaultRule rule;
  rule.kind = kind;
  rule.at_op = at_op;
  rule.max_fires = max_fires;
  rules.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::fail_after(FaultKind kind, double after_time,
                                 int max_fires) {
  FaultRule rule;
  rule.kind = kind;
  rule.after_time = after_time;
  rule.max_fires = max_fires;
  rules.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::die_after(double after_time, int max_fires) {
  FaultRule rule;
  rule.kind = FaultKind::kReplicaDeath;
  rule.after_time = after_time;
  rule.max_fires = max_fires;
  rules.push_back(rule);
  return *this;
}

FaultPlan& FaultPlan::straggle(double onset, double duration, double factor) {
  DCN_CHECK(factor >= 1.0) << "straggler factor " << factor;
  FaultRule rule;
  rule.kind = FaultKind::kStraggler;
  rule.after_time = onset;
  rule.duration = duration;
  rule.slowdown_factor = factor;
  rules.push_back(rule);
  return *this;
}

double FaultPlan::death_time() const {
  double earliest = std::numeric_limits<double>::infinity();
  for (const FaultRule& rule : rules) {
    if (rule.kind == FaultKind::kReplicaDeath && rule.after_time >= 0.0) {
      earliest = std::min(earliest, rule.after_time);
    }
  }
  return earliest;
}

int FaultPlan::death_budget() const {
  const double earliest = death_time();
  for (const FaultRule& rule : rules) {
    if (rule.kind == FaultKind::kReplicaDeath &&
        rule.after_time == earliest) {
      return rule.max_fires;
    }
  }
  return 0;
}

double FaultPlan::straggler_factor(double now) const {
  double factor = 1.0;
  for (const FaultRule& rule : rules) {
    if (rule.kind != FaultKind::kStraggler || rule.after_time < 0.0) continue;
    if (now < rule.after_time) continue;
    if (rule.duration > 0.0 && now >= rule.after_time + rule.duration) {
      continue;
    }
    factor = std::max(factor, rule.slowdown_factor);
  }
  return factor;
}

FaultPlan& FaultPlan::fail_with_probability(FaultKind kind, double probability,
                                            int max_fires) {
  DCN_CHECK(probability >= 0.0 && probability <= 1.0)
      << "fault probability " << probability;
  FaultRule rule;
  rule.kind = kind;
  rule.probability = probability;
  rule.max_fires = max_fires;
  rules.push_back(rule);
  return *this;
}

namespace {

FaultKind parse_kind(const std::string& name) {
  if (name == "launch") return FaultKind::kLaunchFailure;
  if (name == "memcpy_corrupt") return FaultKind::kMemcpyCorruption;
  if (name == "memcpy_slow") return FaultKind::kMemcpySlowdown;
  if (name == "alloc") return FaultKind::kAllocFailure;
  if (name == "sync_hang") return FaultKind::kSyncHang;
  // Replica deaths and straggler windows are fleet faults: the serving
  // layer builds them from a ChaosConfig, and no device reads them from a
  // per-device plan, so accepting them here would silently inject nothing.
  if (name == "replica_death" || name == "straggler") {
    throw ConfigError("fault kind '" + name +
                      "' is a fleet fault: use the chaos grammar "
                      "(crash:at=<t>,... or straggle:at=<t>,dur=<t>,...)");
  }
  throw ConfigError(
      "unknown fault kind '" + name +
      "' (expected launch | memcpy_corrupt | memcpy_slow | alloc | "
      "sync_hang)");
}

double parse_number(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("bad value '" + value + "' for fault key '" + key +
                      "'");
  }
}

// An integer key's value must be a whole number in [lo, hi]; casting a
// fraction or an out-of-range double would silently change the rule.
std::int64_t parse_whole(const std::string& key, const std::string& value,
                         std::int64_t lo, std::int64_t hi) {
  const double parsed = parse_number(key, value);
  if (!(parsed >= static_cast<double>(lo) &&
        parsed <= static_cast<double>(hi)) ||
      parsed != std::floor(parsed)) {
    throw ConfigError("fault key '" + key + "' needs a whole number in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "], got '" + value + "'");
  }
  return static_cast<std::int64_t>(parsed);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  std::istringstream rules_stream(spec);
  std::string rule_text;
  while (std::getline(rules_stream, rule_text, ';')) {
    if (rule_text.empty()) continue;
    const std::size_t colon = rule_text.find(':');
    FaultRule rule;
    rule.kind = parse_kind(rule_text.substr(0, colon));
    bool triggered = false;
    if (colon != std::string::npos) {
      std::istringstream kv_stream(rule_text.substr(colon + 1));
      std::string kv;
      while (std::getline(kv_stream, kv, ',')) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          throw ConfigError("fault key '" + kv + "' missing '=value'");
        }
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "p") {
          rule.probability = parse_number(key, value);
          DCN_CHECK(rule.probability >= 0.0 && rule.probability <= 1.0)
              << "fault probability " << rule.probability;
          rule.max_fires = -1;  // stochastic rules default to unbounded
          triggered = true;
        } else if (key == "at") {
          // 2^53: the largest range in which every whole double is exact.
          rule.at_op = parse_whole(key, value, 0, std::int64_t{1} << 53);
          triggered = true;
        } else if (key == "after") {
          // A negative, infinite or NaN time would make a rule that never
          // fires.
          rule.after_time = parse_number(key, value);
          if (!(rule.after_time >= 0.0 && std::isfinite(rule.after_time))) {
            throw ConfigError("fault key 'after' needs a finite time >= 0, "
                              "got '" + value + "'");
          }
          triggered = true;
        } else if (key == "fires") {
          // -1 = unbounded.
          rule.max_fires = static_cast<int>(
              parse_whole(key, value, -1, std::numeric_limits<int>::max()));
        } else if (key == "factor") {
          // A slowdown below 1 would speed copies up (below 0, make them
          // take negative time).
          rule.slowdown_factor = parse_number(key, value);
          if (!(rule.slowdown_factor >= 1.0 &&
                std::isfinite(rule.slowdown_factor))) {
            throw ConfigError("fault key 'factor' needs a finite slowdown "
                              ">= 1, got '" + value + "'");
          }
        } else if (key == "dur") {
          throw ConfigError(
              "fault key 'dur' sets a straggler window: use the chaos "
              "grammar (straggle:at=<t>,dur=<t>,...)");
        } else if (key == "hang") {
          plan.hang_seconds = parse_number(key, value);
        } else {
          throw ConfigError("unknown fault key '" + key +
                            "' (expected p | at | after | fires | factor | "
                            "hang)");
        }
      }
    }
    if (!triggered) {
      throw ConfigError("fault rule '" + rule_text +
                        "' needs a trigger (p=, at=, or after=)");
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      fires_per_rule_(plan_.rules.size(), 0) {}

std::optional<InjectedFault> FaultInjector::check(FaultKind kind, double now) {
  const auto kind_index = static_cast<std::size_t>(kind);
  const std::int64_t op = ops_seen_[kind_index]++;
  for (std::size_t r = 0; r < plan_.rules.size(); ++r) {
    const FaultRule& rule = plan_.rules[r];
    if (rule.kind != kind) continue;
    if (rule.max_fires >= 0 && fires_per_rule_[r] >= rule.max_fires) continue;
    bool fires = false;
    std::string trigger;
    if (rule.at_op >= 0) {
      // Persists across consecutive eligible ops until max_fires is spent,
      // which models a fault surviving the first retries.
      fires = op >= rule.at_op;
      trigger = "at_op=" + std::to_string(rule.at_op);
    } else if (rule.after_time >= 0.0) {
      fires = now >= rule.after_time;
      trigger = "after_time";
    } else if (rule.probability > 0.0) {
      // Draw exactly once per eligible op so the RNG stream — and hence the
      // fault schedule — is a pure function of the operation sequence.
      fires = rng_.bernoulli(rule.probability);
      trigger = "p=" + std::to_string(rule.probability);
    }
    if (!fires) continue;
    ++fires_per_rule_[r];
    InjectedFault fault;
    fault.kind = kind;
    fault.time = now;
    fault.op_index = op;
    fault.slowdown_factor =
        kind == FaultKind::kMemcpySlowdown ? rule.slowdown_factor : 1.0;
    fault.detail = std::string(fault_kind_name(kind)) + " (" + trigger +
                   ", op " + std::to_string(op) + ")";
    injected_.push_back(fault);
    return fault;
  }
  return std::nullopt;
}

int FaultInjector::fired(FaultKind kind) const {
  int count = 0;
  for (const InjectedFault& fault : injected_) {
    if (fault.kind == kind) ++count;
  }
  return count;
}

std::int64_t FaultInjector::ops_seen(FaultKind kind) const {
  return ops_seen_[static_cast<std::size_t>(kind)];
}

}  // namespace dcn::simgpu
