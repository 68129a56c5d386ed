// AVX-512 VNNI kernel variant: the avx512 variant's kernels plus qgemm
// tiles and batch-1 dot products on vpdpbusd, which multiplies four u8 x s8
// pairs per 32-bit lane and adds them to the int32 accumulator in one
// instruction. vpdpbusd does not saturate (unlike vpmaddubsw, or vpdpbusds),
// so it is exact under qgemm's K bound and memcmp-identical to the
// widening kernels. A separate variant rather than a branch inside avx512,
// so forcing "avx512" on a VNNI host still runs — and tests — the widening
// path. Compiled with -mavx512f -mavx512bw -mavx512vnni -ffp-contract=off.
#include <immintrin.h>

#include <cstring>

#include "core/cpuinfo.hpp"
#include "tensor/kernels/microkernel.hpp"

namespace dcn::kernels {
namespace {

bool avx512vnni_supported() {
  const CpuFeatures& f = cpu_features();
  return f.avx512f && f.avx512bw && f.avx512vnni;
}

// MR x (16 * NV) tile: one zmm accumulator per row and 16 columns; each
// K-group is NV B loads and, per row, one broadcast of its four weights.
template <int MR, int NV>
void qgemm_micro_vnni(std::int64_t kg, const std::int8_t* __restrict pa,
                      const std::uint8_t* __restrict pb,
                      std::int32_t* __restrict acc) {
  constexpr int NR = 16 * NV;
  __m512i c[MR][NV];
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NV; ++j) c[i][j] = _mm512_setzero_si512();
  }
  for (std::int64_t g = 0; g < kg; ++g) {
    __m512i b[NV];
    for (int j = 0; j < NV; ++j) {
      b[j] = _mm512_loadu_si512(pb + (g * NR + j * 16) * 4);
    }
    const std::int8_t* a = pa + g * MR * 4;
    for (int i = 0; i < MR; ++i) {
      std::int32_t word = 0;
      std::memcpy(&word, a + i * 4, sizeof(word));
      const __m512i av = _mm512_set1_epi32(word);
      for (int j = 0; j < NV; ++j) {
        c[i][j] = _mm512_dpbusd_epi32(c[i][j], b[j], av);
      }
    }
  }
  for (int i = 0; i < MR; ++i) {
    for (int j = 0; j < NV; ++j) {
      _mm512_storeu_si512(acc + i * NR + j * 16, c[i][j]);
    }
  }
}

// Lane sum through memory: GCC's _mm512_reduce_add_epi32 trips
// -Wmaybe-uninitialized on its own undefined upper halves.
std::int32_t lane_sum(__m512i v) {
  alignas(64) std::int32_t lanes[16];
  _mm512_store_si512(lanes, v);
  std::int32_t sum = 0;
  for (const std::int32_t lane : lanes) sum += lane;
  return sum;
}

// Row sums come from the same instruction against a vector of ones, so a
// row is read once for both. The K tail uses masked loads, which zero the
// lanes past k without touching their memory.
void qdot_vnni(std::int64_t rows, std::int64_t k, const std::int8_t* a,
               std::int64_t lda, const std::uint8_t* b, std::int32_t* dot,
               std::int32_t* sum) {
  const __m512i ones = _mm512_set1_epi8(1);
  const std::int64_t tail = k % 64;
  const __mmask64 tail_mask =
      tail == 0 ? 0 : (~static_cast<__mmask64>(0)) >> (64 - tail);
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int8_t* row = a + r * lda;
    __m512i d = _mm512_setzero_si512();
    __m512i s = _mm512_setzero_si512();
    std::int64_t p = 0;
    for (; p + 64 <= k; p += 64) {
      const __m512i av = _mm512_loadu_si512(row + p);
      d = _mm512_dpbusd_epi32(d, _mm512_loadu_si512(b + p), av);
      s = _mm512_dpbusd_epi32(s, ones, av);
    }
    if (tail != 0) {
      const __m512i av = _mm512_maskz_loadu_epi8(tail_mask, row + p);
      d = _mm512_dpbusd_epi32(d, _mm512_maskz_loadu_epi8(tail_mask, b + p),
                              av);
      s = _mm512_dpbusd_epi32(s, ones, av);
    }
    dot[r] = lane_sum(d);
    sum[r] = lane_sum(s);
  }
}

}  // namespace

KernelVariant make_avx512vnni_variant() {
  KernelVariant v = make_avx512_variant();
  v.name = "avx512vnni";
  v.priority = 40;
  v.supported = &avx512vnni_supported;
  v.qgemm = {
      {8, 32, &qgemm_micro_vnni<8, 2>},
      {12, 32, &qgemm_micro_vnni<12, 2>},
      {4, 64, &qgemm_micro_vnni<4, 4>},
      {16, 16, &qgemm_micro_vnni<16, 1>},
  };
  v.qdot = &qdot_vnni;
  return v;
}

}  // namespace dcn::kernels
