// Runtime-dispatched registry of SIMD kernel variants.
//
// All compiled-in variants (see microkernel.hpp) register here at first
// use; the active variant is chosen once — highest priority whose
// supported() probe passes on the executing CPU — and cached. The choice
// can be overridden for A/B runs and CI:
//
//   * environment: DCN_KERNEL_VARIANT=generic|sse41|avx2|avx512|avx512vnni
//     (read at first dispatch; reselect() re-reads it),
//   * programmatic: force_variant("avx2") / ScopedForce, used by tests and
//     bench_micro_gemm to measure every variant in one process.
//
// Forcing a variant the CPU cannot run (or that is not compiled in) is
// refused with a warning and auto-selection is kept: dispatch must never
// hand out a kernel that would fault. Switching variants between kernel
// invocations is safe; switching concurrently with a running kernel is
// not (test/bench-only API).
#pragma once

#include <string>
#include <vector>

#include "tensor/kernels/microkernel.hpp"

namespace dcn::kernels {

class KernelRegistry {
 public:
  /// The process-wide registry every kernel call site consults.
  static KernelRegistry& global();

  /// The variant all kernels currently dispatch to.
  const KernelVariant& active();

  /// All compiled-in variants, registration order (generic first).
  std::vector<std::string> variant_names();

  /// Compiled-in variant by name (nullptr if absent). The result may still
  /// be unsupported on this CPU — check supported().
  const KernelVariant* find(const std::string& name);

  /// True when this CPU can run the named compiled-in variant.
  bool variant_supported(const std::string& name);

  /// Force dispatch to `name` ("" returns to auto-selection). Returns
  /// false (keeping the previous selection) if the variant is missing or
  /// unsupported on this CPU.
  bool force_variant(const std::string& name);

  /// Re-run selection, re-reading DCN_KERNEL_VARIANT. Clears any
  /// programmatic force.
  void reselect();

  /// RAII force for benches/tests; restores the previous selection.
  class ScopedForce {
   public:
    explicit ScopedForce(const std::string& name);
    ~ScopedForce();
    ScopedForce(const ScopedForce&) = delete;
    ScopedForce& operator=(const ScopedForce&) = delete;
    /// False when the force was refused (variant missing/unsupported).
    bool ok() const { return ok_; }

   private:
    std::string previous_;
    bool ok_;
  };

 private:
  KernelRegistry();
  const KernelVariant* select_auto() const;
  const KernelVariant* select_from_env() const;

  std::vector<KernelVariant> variants_;
  const KernelVariant* active_ = nullptr;
};

}  // namespace dcn::kernels
