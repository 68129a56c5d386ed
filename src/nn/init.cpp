#include "nn/init.hpp"

#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dcn {

void kaiming_normal(Tensor& weight, std::int64_t fan_in, Rng& rng) {
  DCN_CHECK(fan_in > 0) << "kaiming fan_in";
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight.fill_normal(rng, 0.0f, stddev);
}

}  // namespace dcn
