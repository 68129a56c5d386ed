#include "serve/hedge.hpp"

#include <algorithm>
#include <string>

#include "core/error.hpp"

namespace dcn::serve {
namespace {

/// Quantile of observed service times the hedge delay derives from.
constexpr double kQuantile = 0.95;
/// Floor so early noisy estimates cannot hedge near-instantly (seconds).
constexpr double kMinDelay = 1.0e-4;
/// Observations required before hedging arms.
constexpr std::int64_t kMinSamples = 20;

}  // namespace

HedgeController::HedgeController(HedgePolicy policy) : policy_(policy) {
  if (policy.factor <= 0.0) {
    throw ConfigError("HedgeController: factor must be > 0, got " +
                      std::to_string(policy.factor));
  }
}

void HedgeController::observe(double service_seconds) {
  histogram_.add(service_seconds);
}

std::optional<double> HedgeController::delay() const {
  if (!policy_.enabled) return std::nullopt;
  if (histogram_.count() < kMinSamples) return std::nullopt;
  return std::max(kMinDelay, policy_.factor * histogram_.quantile(kQuantile));
}

bool HedgeController::should_hedge(double service_seconds) const {
  const auto hedge_delay = delay();
  return hedge_delay.has_value() && service_seconds > *hedge_delay;
}

}  // namespace dcn::serve
