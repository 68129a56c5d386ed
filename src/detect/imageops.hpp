// Image geometry ops for CHW tensors (resize / crop), used by the
// fixed-input baseline's crop-or-warp preprocessing (§2.2's motivation) and
// by the region-proposal baseline's crop scoring.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace dcn::detect {

/// Bilinear resize of a [C, H, W] tensor to [C, out_h, out_w] ("warp").
Tensor bilinear_resize(const Tensor& image, std::int64_t out_h,
                       std::int64_t out_w);

/// Crop the (cx, cy, w, h)-normalized box region from a [C, H, W] tensor
/// (at least 2x2 pixels).
Tensor crop_box(const Tensor& image, const float box[4]);

}  // namespace dcn::detect
