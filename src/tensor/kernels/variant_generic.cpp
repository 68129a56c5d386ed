// The generic kernel registrant: plain scalar loops, compiled with the
// project's generic flags only (never -march=native — see
// src/tensor/CMakeLists.txt). This is the portable floor every other
// variant is memcmp-checked against, and the honest baseline
// DCN_KERNEL_VARIANT=generic forces for A/B runs: bench_micro_gemm used to
// conflate DCN_NATIVE_KERNELS=OFF with "scalar baseline"; now the baseline
// is an explicit registrant that survives any build-flag combination.
#include "tensor/kernels/variant_impl.hpp"

namespace dcn::kernels {
namespace {

void quantize_u8_scalar(const float* src, std::int64_t n, float inv_scale,
                        float zp, std::uint8_t* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = src[i] * inv_scale + zp;
    const auto r = static_cast<std::int32_t>(std::lround(v));
    dst[i] = static_cast<std::uint8_t>(std::clamp(r, 0, 255));
  }
}

void quantize_s8_scalar(const float* src, std::int64_t n, float inv_scale,
                        std::int8_t* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::int32_t>(std::lround(src[i] * inv_scale));
    dst[i] = static_cast<std::int8_t>(std::clamp(r, -127, 127));
  }
}

void dequantize_u8_scalar(const std::uint8_t* src, std::int64_t n,
                          float scale, float zp, float* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = scale * (static_cast<float>(src[i]) - zp);
  }
}

float reduce_max_scalar(const float* src, std::int64_t n) {
  float best = src[0];
  for (std::int64_t i = 1; i < n; ++i) {
    best = src[i] > best ? src[i] : best;
  }
  return best;
}

float reduce_min_scalar(const float* src, std::int64_t n) {
  float best = src[0];
  for (std::int64_t i = 1; i < n; ++i) {
    best = src[i] < best ? src[i] : best;
  }
  return best;
}

}  // namespace

KernelVariant make_generic_variant() {
  KernelVariant v;
  v.name = "generic";
  v.priority = 0;
  v.supported = nullptr;  // always runnable
  // 4x8 first: the historical scalar register tile is the no-tuner default.
  v.sgemm = {
      {4, 8, &sgemm_micro_scalar<4, 8>},
      {8, 8, &sgemm_micro_scalar<8, 8>},
      {4, 16, &sgemm_micro_scalar<4, 16>},
      {8, 16, &sgemm_micro_scalar<8, 16>},
  };
  v.qgemm = {
      {4, 8, &qgemm_micro_scalar<4, 8>},
      {8, 8, &qgemm_micro_scalar<8, 8>},
      {4, 16, &qgemm_micro_scalar<4, 16>},
  };
  v.qdot = &qdot_scalar;
  v.accumulate = &accumulate_scalar;
  v.quantize_u8 = &quantize_u8_scalar;
  v.quantize_s8 = &quantize_s8_scalar;
  v.dequantize_u8 = &dequantize_u8_scalar;
  v.reduce_max = &reduce_max_scalar;
  v.reduce_min = &reduce_min_scalar;
  return v;
}

}  // namespace dcn::kernels
