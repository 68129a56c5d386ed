// Deadline-aware hedged requests (tail-latency mitigation).
//
// "The Tail at Scale" policy: when a dispatched batch is still running past
// a delay derived from the observed service-time distribution
// (max(100 us, factor x p95)), an identical hedge is launched on a second
// replica and the first completion wins. The duplicate completion is suppressed
// deterministically — exactly one CompletionRecord per request, with the
// `hedged` CSV column recording that a hedge raced for it.
//
// The controller only decides *when* a hedge is warranted; the Server owns
// replica selection and the duplicate-suppression bookkeeping. Service
// times feed a streaming histogram, so the hedge delay adapts as the run
// warms up; until 20 observations it never fires (hedging off a cold
// estimate amplifies load exactly when the fleet knows least).
#pragma once

#include <cstdint>
#include <optional>

#include "serve/histogram.hpp"

namespace dcn::serve {

struct HedgePolicy {
  bool enabled = false;
  /// Hedge delay = max(100 us, factor * p95(service)).
  double factor = 1.0;
};

class HedgeController {
 public:
  /// Throws ConfigError for factor <= 0.
  explicit HedgeController(HedgePolicy policy = {});

  /// Feed one completed service time (seconds).
  void observe(double service_seconds);

  /// Current hedge delay, or nullopt while disabled / not yet armed.
  std::optional<double> delay() const;

  /// Whether a batch whose primary service will take `service_seconds`
  /// should race a hedge.
  bool should_hedge(double service_seconds) const;

  std::int64_t observations() const { return histogram_.count(); }
  const HedgePolicy& policy() const { return policy_; }

 private:
  HedgePolicy policy_;
  LatencyHistogram histogram_;
};

}  // namespace dcn::serve
