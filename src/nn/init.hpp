// Parameter initialization schemes.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace dcn {

class Rng;

/// He/Kaiming normal init for ReLU networks: N(0, sqrt(2 / fan_in)).
void kaiming_normal(Tensor& weight, std::int64_t fan_in, Rng& rng);

}  // namespace dcn
