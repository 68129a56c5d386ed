#include "tensor/kernels/registry.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "core/error.hpp"
#include "core/logging.hpp"

namespace dcn::kernels {
namespace {

// Selection changes (force/reselect) are test/bench-time operations, but
// active() is read from every kernel call on every thread: publish the
// pointer through an atomic so a force in a test harness thread is never a
// data race against a kernel thread reading it.
std::atomic<const KernelVariant*>& active_slot() {
  static std::atomic<const KernelVariant*> slot{nullptr};
  return slot;
}

std::mutex& mutate_mutex() {
  static std::mutex m;
  return m;
}

bool runnable(const KernelVariant& v) {
  return v.supported == nullptr || v.supported();
}

}  // namespace

KernelRegistry::KernelRegistry() {
  variants_.push_back(make_generic_variant());
#ifdef DCN_KERNEL_HAVE_SSE41
  variants_.push_back(make_sse41_variant());
#endif
#ifdef DCN_KERNEL_HAVE_AVX2
  variants_.push_back(make_avx2_variant());
#endif
#ifdef DCN_KERNEL_HAVE_AVX512
  variants_.push_back(make_avx512_variant());
#endif
#ifdef DCN_KERNEL_HAVE_AVX512VNNI
  variants_.push_back(make_avx512vnni_variant());
#endif
  for (const KernelVariant& v : variants_) {
    DCN_CHECK(!v.sgemm.empty() && !v.qgemm.empty())
        << "variant " << v.name << " has no sgemm or qgemm tile";
    for (const SgemmMicroKernel& k : v.sgemm) {
      DCN_CHECK(k.mr >= 1 && k.mr <= kMaxMr && k.nr >= 1 && k.nr <= kMaxNr)
          << "variant " << v.name << " tile " << k.mr << 'x' << k.nr;
    }
    for (const QgemmMicroKernel& k : v.qgemm) {
      DCN_CHECK(k.mr >= 1 && k.mr <= kMaxMr && k.nr >= 1 && k.nr <= kMaxNr)
          << "variant " << v.name << " qgemm tile " << k.mr << 'x' << k.nr;
    }
  }
  const KernelVariant* env = select_from_env();
  active_slot().store(env ? env : select_auto(), std::memory_order_release);
}

KernelRegistry& KernelRegistry::global() {
  static KernelRegistry registry;
  return registry;
}

const KernelVariant& KernelRegistry::active() {
  return *active_slot().load(std::memory_order_acquire);
}

const KernelVariant* KernelRegistry::select_auto() const {
  const KernelVariant* best = &variants_.front();
  for (const KernelVariant& v : variants_) {
    if (runnable(v) && v.priority > best->priority) best = &v;
  }
  return best;
}

const KernelVariant* KernelRegistry::select_from_env() const {
  const char* name = std::getenv("DCN_KERNEL_VARIANT");
  if (name == nullptr || *name == '\0') return nullptr;
  for (const KernelVariant& v : variants_) {
    if (v.name == name) {
      if (runnable(v)) return &v;
      DCN_LOG_WARN << "DCN_KERNEL_VARIANT=" << name
                   << " is not supported on this CPU; using auto selection";
      return nullptr;
    }
  }
  DCN_LOG_WARN << "DCN_KERNEL_VARIANT=" << name
               << " is not compiled in; using auto selection";
  return nullptr;
}

std::vector<std::string> KernelRegistry::variant_names() {
  std::vector<std::string> names;
  names.reserve(variants_.size());
  for (const KernelVariant& v : variants_) names.push_back(v.name);
  return names;
}

const KernelVariant* KernelRegistry::find(const std::string& name) {
  for (const KernelVariant& v : variants_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

bool KernelRegistry::variant_supported(const std::string& name) {
  const KernelVariant* v = find(name);
  return v != nullptr && runnable(*v);
}

bool KernelRegistry::force_variant(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutate_mutex());
  if (name.empty()) {
    const KernelVariant* env = select_from_env();
    active_slot().store(env ? env : select_auto(),
                        std::memory_order_release);
    return true;
  }
  const KernelVariant* v = find(name);
  if (v == nullptr || !runnable(*v)) {
    DCN_LOG_WARN << "force_variant(" << name
                 << ") refused: " << (v ? "unsupported CPU" : "not compiled");
    return false;
  }
  active_slot().store(v, std::memory_order_release);
  return true;
}

void KernelRegistry::reselect() { force_variant(""); }

KernelRegistry::ScopedForce::ScopedForce(const std::string& name) {
  previous_ = KernelRegistry::global().active().name;
  ok_ = KernelRegistry::global().force_variant(name);
}

KernelRegistry::ScopedForce::~ScopedForce() {
  KernelRegistry::global().force_variant(previous_);
}

}  // namespace dcn::kernels
