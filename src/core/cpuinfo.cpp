#include "core/cpuinfo.hpp"

namespace dcn {
namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // __builtin_cpu_supports reads cpuid through libgcc's model; init must
  // run before the first query (it is idempotent).
  __builtin_cpu_init();
  f.sse41 = __builtin_cpu_supports("sse4.1");
  f.avx = __builtin_cpu_supports("avx");
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.avx512bw = __builtin_cpu_supports("avx512bw");
  f.avx512vnni = __builtin_cpu_supports("avx512vnni");
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  // Magic-static: probed exactly once, safely published to all threads.
  static const CpuFeatures features = probe();
  return features;
}

}  // namespace dcn
