// Loss functions for the detection head.
//
// The SPP-Net head predicts, per image, an objectness logit and a bounding
// box (cx, cy, w, h in [0,1] patch coordinates). Classification uses
// binary cross-entropy on the logit; box regression uses smooth-L1 masked
// to positive samples, mirroring the Fast R-CNN multi-task loss the paper's
// reference implementation uses.
#pragma once

#include "tensor/tensor.hpp"

namespace dcn {

/// Value + gradient of a scalar loss wrt the predictions.
struct LossResult {
  double value = 0.0;
  Tensor grad;  // dL/d(predictions), same shape as predictions
};

/// Mean binary cross-entropy with logits. logits/targets: rank-1 [N],
/// targets in {0, 1}.
LossResult bce_with_logits(const Tensor& logits, const Tensor& targets);

/// Mean smooth-L1 (Huber with delta=1) between pred and target, both
/// [N, D]; rows where mask[n] == 0 contribute nothing. Normalized by the
/// number of unmasked rows (or 1 if none).
LossResult smooth_l1(const Tensor& pred, const Tensor& target,
                     const Tensor& mask);

/// Combined detection loss over head output [N, 5] =
/// [objectness logit | cx cy w h]. `labels` [N] in {0,1}; `boxes` [N, 4].
/// total = bce + box_weight * smooth_l1(positives only).
LossResult detection_loss(const Tensor& head_out, const Tensor& labels,
                          const Tensor& boxes, double box_weight = 1.0);

}  // namespace dcn
