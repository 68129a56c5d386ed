#include "serve/shed.hpp"

#include <string>

#include "core/error.hpp"

namespace dcn::serve {
namespace {

/// Minimum time in a state before the next switch (virtual seconds).
constexpr double kMinDwell = 0.010;

}  // namespace

const char* shed_state_name(ShedState state) {
  switch (state) {
    case ShedState::kNormal:
      return "normal";
    case ShedState::kDegraded:
      return "degraded";
  }
  return "unknown";
}

LoadShedder::LoadShedder(ShedPolicy policy) : policy_(policy) {
  if (policy.degrade_watermark < 0.0 || policy.degrade_watermark > 1.0 ||
      policy.restore_watermark < 0.0 || policy.restore_watermark > 1.0) {
    throw ConfigError("LoadShedder: watermarks must be in [0, 1]");
  }
  if (policy.restore_watermark >= policy.degrade_watermark) {
    throw ConfigError(
        "LoadShedder: restore_watermark " +
        std::to_string(policy.restore_watermark) +
        " must be below degrade_watermark " +
        std::to_string(policy.degrade_watermark) + " (hysteresis)");
  }
}

bool LoadShedder::update(double now, double occupancy) {
  if (!policy_.enabled) return false;
  if (now - entered_at_ < kMinDwell) return false;
  if (state_ == ShedState::kNormal &&
      occupancy >= policy_.degrade_watermark) {
    state_ = ShedState::kDegraded;
    entered_at_ = now;
    ++degrade_entries_;
    return true;
  }
  if (state_ == ShedState::kDegraded &&
      occupancy <= policy_.restore_watermark) {
    degraded_accum_ += now - entered_at_;
    state_ = ShedState::kNormal;
    entered_at_ = now;
    return true;
  }
  return false;
}

double LoadShedder::degraded_seconds(double now) const {
  double total = degraded_accum_;
  if (state_ == ShedState::kDegraded && now > entered_at_) {
    total += now - entered_at_;
  }
  return total;
}

}  // namespace dcn::serve
