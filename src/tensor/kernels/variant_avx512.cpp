// 512-bit (AVX-512-class) kernel variant. Compiled with -mavx512f
// -mavx512bw and gated on both cpuid bits. Sixteen lanes per vector and 32
// zmm registers allow much taller tiles (12x32 holds 24 accumulators).
// Build carries -ffp-contract=off: AVX-512F includes embedded FMA forms the
// compiler would otherwise contract `acc += a * b` into, which would break
// the cross-variant memcmp contract.
#include "core/cpuinfo.hpp"
#include "tensor/kernels/variant_impl.hpp"

namespace dcn::kernels {
namespace {

bool avx512_supported() {
  return cpu_features().avx512f && cpu_features().avx512bw;
}

}  // namespace

KernelVariant make_avx512_variant() {
  KernelVariant v;
  v.name = "avx512";
  v.priority = 30;
  v.supported = &avx512_supported;
  constexpr int W = 16;
  v.sgemm = {
      {4, 32, &sgemm_micro_vec<4, 32, W>},
      {8, 32, &sgemm_micro_vec<8, 32, W>},
      {12, 32, &sgemm_micro_vec<12, 32, W>},
      {4, 64, &sgemm_micro_vec<4, 64, W>},
      {8, 48, &sgemm_micro_vec<8, 48, W>},
      {6, 16, &sgemm_micro_vec<6, 16, W>},
  };
  v.qgemm = {
      {8, 32, &qgemm_micro_vec<8, 32, W>},
      {12, 32, &qgemm_micro_vec<12, 32, W>},
      {4, 64, &qgemm_micro_vec<4, 64, W>},
      {16, 16, &qgemm_micro_vec<16, 16, W>},
  };
  v.sgemv = &sgemv_vec<W>;
  v.qdot = &qdot_vec<W>;
  v.accumulate = &accumulate_vec<W>;
  v.quantize_u8 = &quantize_u8_vec<W>;
  v.quantize_s8 = &quantize_s8_vec<W>;
  return v;
}

}  // namespace dcn::kernels
