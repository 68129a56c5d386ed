// Load shedding via precision degradation.
//
// Overload policy with a middle rung between "serve at full quality" and
// "reject": when admission-queue occupancy crosses a high watermark the
// shedder enters degraded mode, and dispatch steers batches to the INT8
// replica pool — trading the (paper-measured) negligible accuracy loss of
// post-training quantization for ~2x service throughput. Occupancy falling
// under the low watermark restores normal routing. Watermark hysteresis
// plus a 10 ms minimum dwell prevent flapping at the boundary; rejection
// at admission (BoundedQueue) remains the final backstop.
//
// The shedder is a pure occupancy-driven state machine on the virtual
// clock: same occupancy sequence, same decisions.
#pragma once

#include <cstdint>

namespace dcn::serve {

enum class ShedState { kNormal, kDegraded };

const char* shed_state_name(ShedState state);

struct ShedPolicy {
  bool enabled = false;
  /// Queue occupancy (size / capacity) at or above which shedding engages.
  double degrade_watermark = 0.75;
  /// Occupancy at or below which normal routing restores.
  double restore_watermark = 0.25;
};

class LoadShedder {
 public:
  /// Throws ConfigError for watermarks outside [0, 1] or restore >= degrade.
  explicit LoadShedder(ShedPolicy policy = {});

  /// Observe queue occupancy in [0, 1] at virtual time `now`. Returns true
  /// when the state switched.
  bool update(double now, double occupancy);

  ShedState state() const { return state_; }
  bool degraded() const { return state_ == ShedState::kDegraded; }

  /// Times the shedder entered degraded mode.
  std::int64_t degrade_entries() const { return degrade_entries_; }
  /// Total virtual seconds spent degraded up to `now`.
  double degraded_seconds(double now) const;

  const ShedPolicy& policy() const { return policy_; }

 private:
  ShedPolicy policy_;
  ShedState state_ = ShedState::kNormal;
  double entered_at_ = 0.0;
  double degraded_accum_ = 0.0;
  std::int64_t degrade_entries_ = 0;
};

}  // namespace dcn::serve
