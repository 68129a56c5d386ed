#include "serve/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dcn::serve {
namespace {

double parse_number(const std::string& key, const std::string& value) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("bad value '" + value + "' for chaos key '" + key +
                      "'");
  }
}

// Counts and replica indices must be whole numbers that fit an int and are
// not negative; casting a fraction would silently change the campaign.
int parse_count(const std::string& key, const std::string& value) {
  const double parsed = parse_number(key, value);
  if (!(parsed >= 0.0 &&
        parsed <= static_cast<double>(std::numeric_limits<int>::max())) ||
      parsed != std::floor(parsed)) {
    throw ConfigError("chaos key '" + key +
                      "' needs a whole number >= 0 that fits an int, got '" +
                      value + "'");
  }
  return static_cast<int>(parsed);
}

std::vector<int> parse_victims(const std::string& value) {
  std::vector<int> victims;
  std::istringstream stream(value);
  std::string token;
  while (std::getline(stream, token, '+')) {
    if (token.empty()) continue;
    victims.push_back(parse_count("victims", token));
  }
  if (victims.empty()) {
    throw ConfigError("chaos victims list '" + value + "' is empty");
  }
  return victims;
}

/// Draw `count` distinct victims from [0, replicas) with a campaign-salted
/// RNG: partial Fisher-Yates over the index list, so the draw is a pure
/// function of (seed, salt, replicas, count).
std::vector<int> draw_victims(std::uint64_t seed, std::uint64_t salt,
                              int replicas, int count) {
  Rng rng(mix_seed(seed, salt));
  std::vector<int> pool(static_cast<std::size_t>(replicas));
  for (int r = 0; r < replicas; ++r) pool[static_cast<std::size_t>(r)] = r;
  std::vector<int> victims;
  victims.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const std::size_t pick =
        static_cast<std::size_t>(k) +
        rng.index(pool.size() - static_cast<std::size_t>(k));
    std::swap(pool[static_cast<std::size_t>(k)], pool[pick]);
    victims.push_back(pool[static_cast<std::size_t>(k)]);
  }
  return victims;
}

void check_victims(const std::vector<int>& victims, int replicas,
                   const char* campaign) {
  for (int v : victims) {
    if (v < 0 || v >= replicas) {
      throw ConfigError(std::string(campaign) + " victim " +
                        std::to_string(v) + " out of range for " +
                        std::to_string(replicas) + " replicas");
    }
  }
  std::vector<int> sorted = victims;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw ConfigError(std::string(campaign) + " victims list has duplicates");
  }
}

}  // namespace

ChaosConfig ChaosConfig::parse(const std::string& spec, std::uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  std::istringstream campaigns(spec);
  std::string campaign;
  while (std::getline(campaigns, campaign, ';')) {
    if (campaign.empty()) continue;
    const std::size_t colon = campaign.find(':');
    const std::string kind = campaign.substr(0, colon);
    const bool is_crash = kind == "crash";
    const bool is_straggle = kind == "straggle";
    if (!is_crash && !is_straggle) {
      throw ConfigError("unknown chaos campaign '" + kind +
                        "' (expected crash | straggle)");
    }
    CrashStorm storm;
    StragglerWave wave;
    bool has_at = false;
    bool has_dur = false;
    if (colon != std::string::npos) {
      std::istringstream kv_stream(campaign.substr(colon + 1));
      std::string kv;
      while (std::getline(kv_stream, kv, ',')) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          throw ConfigError("chaos key '" + kv + "' missing '=value'");
        }
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        if (key == "at") {
          storm.time = wave.onset = parse_number(key, value);
          has_at = true;
        } else if (key == "victims") {
          storm.victims = wave.victims = parse_victims(value);
        } else if (is_crash && key == "kills") {
          storm.kills = parse_count(key, value);
        } else if (is_crash && key == "perm") {
          storm.permanent = parse_number(key, value) != 0.0;
        } else if (is_straggle && key == "dur") {
          wave.duration = parse_number(key, value);
          has_dur = true;
        } else if (is_straggle && key == "count") {
          wave.count = parse_count(key, value);
        } else if (is_straggle && key == "factor") {
          wave.factor = parse_number(key, value);
        } else {
          throw ConfigError("unknown chaos key '" + key + "' for campaign '" +
                            kind + "'");
        }
      }
    }
    if (!has_at) {
      throw ConfigError("chaos campaign '" + campaign + "' needs at=<time>");
    }
    if (is_crash) {
      if (storm.kills < 1 && storm.victims.empty()) {
        throw ConfigError("crash storm needs kills >= 1 or a victims list");
      }
      config.storms.push_back(std::move(storm));
    } else {
      if (!has_dur) {
        throw ConfigError("straggler wave '" + campaign +
                          "' needs dur=<seconds>");
      }
      if (wave.factor < 1.0) {
        throw ConfigError("straggler factor must be >= 1, got " +
                          std::to_string(wave.factor));
      }
      config.waves.push_back(std::move(wave));
    }
  }
  return config;
}

std::vector<simgpu::FaultPlan> materialize_chaos(const ChaosConfig& config,
                                                 int replicas) {
  if (replicas < 1) {
    throw ConfigError("materialize_chaos: replicas must be >= 1, got " +
                      std::to_string(replicas));
  }
  std::vector<simgpu::FaultPlan> plans(static_cast<std::size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    plans[static_cast<std::size_t>(r)].seed =
        mix_seed(config.seed, static_cast<std::uint64_t>(r));
  }
  for (std::size_t s = 0; s < config.storms.size(); ++s) {
    const CrashStorm& storm = config.storms[s];
    std::vector<int> victims = storm.victims;
    if (victims.empty()) {
      if (storm.kills > replicas) {
        throw ConfigError("crash storm kills " + std::to_string(storm.kills) +
                          " of only " + std::to_string(replicas) +
                          " replicas");
      }
      // Storm-index salt: adding or removing another campaign does not
      // reshuffle this storm's draw.
      victims = draw_victims(config.seed, 1000 + s, replicas, storm.kills);
    }
    check_victims(victims, replicas, "crash storm");
    for (int v : victims) {
      plans[static_cast<std::size_t>(v)].die_after(
          storm.time, storm.permanent ? -1 : 1);
    }
  }
  for (std::size_t w = 0; w < config.waves.size(); ++w) {
    const StragglerWave& wave = config.waves[w];
    std::vector<int> victims = wave.victims;
    if (victims.empty()) {
      if (wave.count > replicas) {
        throw ConfigError("straggler wave slows " +
                          std::to_string(wave.count) + " of only " +
                          std::to_string(replicas) + " replicas");
      }
      victims = draw_victims(config.seed, 2000 + w, replicas, wave.count);
    }
    check_victims(victims, replicas, "straggler wave");
    for (int v : victims) {
      plans[static_cast<std::size_t>(v)].straggle(wave.onset, wave.duration,
                                                  wave.factor);
    }
  }
  return plans;
}

}  // namespace dcn::serve
