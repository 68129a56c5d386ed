// Post-training quantization calibration.
//
// A RangeObserver watches the float activations feeding each quantized
// operator while a calibration split runs through the trained network, and
// turns the observed min/max range into the operator's activation
// QuantParams.
//
// Everything here is deterministic: the range is a function of the
// observed values only, and the calibration split is drawn from a seeded
// Rng, so a seed reproduces the whole quantized model bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/quantize.hpp"

namespace dcn::detect {

/// Streams activation values and tracks their range. The first value
/// seeds min and max; later values widen them through std::min/std::max,
/// so a later NaN is ignored and a first NaN makes the range NaN.
class RangeObserver {
 public:
  void observe(const float* values, std::int64_t count);

  bool empty() const { return count_ == 0; }
  std::int64_t count() const { return count_; }
  float min_value() const;
  float max_value() const;

  /// Affine u8 parameters covering [min_value(), max_value()] (widened
  /// through 0, see choose_quant_params).
  QuantParams quant_params() const;

 private:
  float min_ = 0.0f;
  float max_ = 0.0f;
  std::int64_t count_ = 0;
};

/// Seeded random subset of [0, dataset_size) used for calibration, sorted
/// ascending. max_images = 0 (or >= dataset_size) selects everything.
std::vector<std::int64_t> calibration_split(std::int64_t dataset_size,
                                            std::int64_t max_images,
                                            std::uint64_t seed);

}  // namespace dcn::detect
