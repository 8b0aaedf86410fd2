#ifndef ALP_ALP_KERNELS_KERNEL_TIERS_H_
#define ALP_ALP_KERNELS_KERNEL_TIERS_H_

#include "alp/kernel_dispatch.h"

/// \file kernel_tiers.h
/// Internal seam between the dispatcher and the per-ISA translation units.
/// Each Get*Kernels() is defined in its own TU (compiled with that ISA's
/// target flags, see src/CMakeLists.txt) and returns nullptr when the TU
/// was built without the ISA — e.g. the NEON TU in an x86 build, or the
/// AVX TUs on a compiler without the flags. Everything inside those TUs
/// lives in an anonymous namespace: per-TU target flags on code sharing
/// one mangled name across TUs would let the linker pick an illegal-
/// instruction copy for a weaker CPU, so no tier exports anything but its
/// getter.

namespace alp::kernels {

const KernelTable* GetScalarKernels();
const KernelTable* GetAvx2Kernels();
const KernelTable* GetAvx512Kernels();
const KernelTable* GetNeonKernels();

}  // namespace alp::kernels

#endif  // ALP_ALP_KERNELS_KERNEL_TIERS_H_
