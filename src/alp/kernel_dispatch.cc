#include "alp/kernel_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "alp/kernels/kernel_tiers.h"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace alp::kernels {
namespace {

// The resolved selection. Null until the first Active() call; Resolve() is
// idempotent so concurrent first calls are fine (both compute the same
// pick, one CAS wins).
std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* KernelsCompiledFor(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return GetScalarKernels();
    case Tier::kNeon: return GetNeonKernels();
    case Tier::kAvx2: return GetAvx2Kernels();
    case Tier::kAvx512: return GetAvx512Kernels();
  }
  return nullptr;
}

const KernelTable* Resolve() {
  const KernelTable* pick = nullptr;
  if (const char* env = std::getenv("ALP_FORCE_KERNEL"); env != nullptr && *env != '\0') {
    const std::string_view name(env);
    Tier tier;
    if (name == "auto") {
      pick = TierKernels(BestTier());
    } else if (!ParseTier(name, &tier)) {
      std::fprintf(stderr,
                   "alp: unknown ALP_FORCE_KERNEL=%s "
                   "(want scalar|avx2|avx512|neon|auto); using auto\n",
                   env);
      pick = TierKernels(BestTier());
    } else if ((pick = TierKernels(tier)) == nullptr) {
      std::fprintf(stderr,
                   "alp: ALP_FORCE_KERNEL=%s is not available on this "
                   "host/build; using scalar\n",
                   env);
      pick = GetScalarKernels();
    }
  } else {
    pick = TierKernels(BestTier());
  }
  if (pick == nullptr) pick = GetScalarKernels();
  const KernelTable* expected = nullptr;
  g_active.compare_exchange_strong(expected, pick, std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kNeon: return "neon";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "unknown";
}

bool ParseTier(std::string_view name, Tier* out) {
  for (unsigned i = 0; i < kTierCount; ++i) {
    const Tier tier = static_cast<Tier>(i);
    if (name == TierName(tier)) {
      *out = tier;
      return true;
    }
  }
  return false;
}

bool CpuSupportsTier(Tier tier) {
  if (tier == Tier::kScalar) return true;
#if defined(__x86_64__) || defined(__i386__)
  if (tier == Tier::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  if (tier == Tier::kAvx512) {
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0;
  }
#elif defined(__aarch64__)
  if (tier == Tier::kNeon) {
#if defined(__linux__)
    return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
    return true;  // ASIMD is architecturally baseline on AArch64.
#endif
  }
#endif
  return false;
}

bool TierCompiledIn(Tier tier) { return KernelsCompiledFor(tier) != nullptr; }

bool TierAvailable(Tier tier) {
  return CpuSupportsTier(tier) && TierCompiledIn(tier);
}

Tier BestTier() {
  for (const Tier tier : {Tier::kAvx512, Tier::kAvx2, Tier::kNeon}) {
    if (TierAvailable(tier)) return tier;
  }
  return Tier::kScalar;
}

const KernelTable* TierKernels(Tier tier) {
  return TierAvailable(tier) ? KernelsCompiledFor(tier) : nullptr;
}

const KernelTable& Active() {
  const KernelTable* k = g_active.load(std::memory_order_acquire);
  return k != nullptr ? *k : *Resolve();
}

Tier ActiveTier() { return Active().tier; }

const char* ActiveTierName() { return TierName(ActiveTier()); }

bool ForceTier(Tier tier) {
  const KernelTable* k = TierKernels(tier);
  if (k == nullptr) return false;
  g_active.store(k, std::memory_order_release);
  return true;
}

bool ForceTierByName(std::string_view name) {
  if (name == "auto") return ForceTier(BestTier());
  Tier tier;
  return ParseTier(name, &tier) && ForceTier(tier);
}

void ResetForTesting() { g_active.store(nullptr, std::memory_order_release); }

}  // namespace alp::kernels
