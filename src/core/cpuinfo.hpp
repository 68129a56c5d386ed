// Runtime CPU feature detection for kernel dispatch.
//
// The tensor engine ships several SIMD microkernel variants compiled for
// different ISA levels (tensor/kernels); which ones are *runnable* is a
// property of the machine executing the binary, not of the build host. This
// probe answers that question once per process so the kernel registry can
// dispatch the widest variant the CPU actually supports — the XNNPACK-style
// split between "compiled in" (a build-time fact) and "selectable" (a
// run-time fact).
#pragma once

namespace dcn {

/// x86 SIMD levels the kernel variants target. Non-x86 builds report
/// everything false and the registry falls back to the generic variant.
struct CpuFeatures {
  bool sse41 = false;
  bool avx = false;
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vnni = false;
};

/// The executing machine's features, probed once (cpuid) on first call and
/// cached; thread-safe.
const CpuFeatures& cpu_features();

}  // namespace dcn
