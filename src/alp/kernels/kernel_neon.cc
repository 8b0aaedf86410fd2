// AArch64 NEON (ASIMD) dispatch tier. ASIMD is architecturally baseline on
// AArch64, so this tier mostly guarantees the fused convert+multiply uses
// the native scvtf int64->double conversion regardless of what the
// compiler does with the portable loops; the integer glue/patch paths are
// left to auto-vectorization. On non-AArch64 builds the TU degenerates to
// a nullptr getter.

#include "alp/kernels/kernel_tiers.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <array>
#include <bit>
#include <cstdint>
#include <utility>

#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

constexpr Tier kSelfTier = Tier::kNeon;

void ConvertMul64(const uint64_t* vals, uint64_t base, double f10_f,
                  double if10_e, double* out) {
  const int64x2_t b = vdupq_n_s64(static_cast<int64_t>(base));
  const float64x2_t ff = vdupq_n_f64(f10_f);
  const float64x2_t ife = vdupq_n_f64(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 2) {
    const int64x2_t v = vaddq_s64(
        vreinterpretq_s64_u64(vld1q_u64(vals + i)), b);
    const float64x2_t d = vcvtq_f64_s64(v);
    vst1q_f64(out + i, vmulq_f64(vmulq_f64(d, ff), ife));
  }
}

void ConvertMul32(const uint32_t* vals, uint32_t base, double f10_f,
                  double if10_e, float* out) {
  const int32x4_t b = vdupq_n_s32(static_cast<int32_t>(base));
  const float64x2_t ff = vdupq_n_f64(f10_f);
  const float64x2_t ife = vdupq_n_f64(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 4) {
    const int32x4_t v = vaddq_s32(
        vreinterpretq_s32_u32(vld1q_u32(vals + i)), b);
    const float64x2_t lo = vcvtq_f64_s64(vmovl_s32(vget_low_s32(v)));
    const float64x2_t hi = vcvtq_f64_s64(vmovl_s32(vget_high_s32(v)));
    const float32x2_t flo = vcvt_f32_f64(vmulq_f64(vmulq_f64(lo, ff), ife));
    const float32x2_t fhi = vcvt_f32_f64(vmulq_f64(vmulq_f64(hi, ff), ife));
    vst1q_f32(out + i, vcombine_f32(flo, fhi));
  }
}

void GlueJoin64(const uint64_t* codes, const uint64_t* right,
                const uint64_t* dict_shifted, double* out) {
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<double>(dict_shifted[codes[i]] | right[i]);
  }
}

void GlueJoin32(const uint32_t* codes, const uint32_t* right,
                const uint32_t* dict_shifted, float* out) {
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<float>(dict_shifted[codes[i]] | right[i]);
  }
}

void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// Unsigned 64-bit range test: vcgeq/vcleq_u64 produce all-ones lane masks;
// the low bit of each mask lane lands in the bitmap word.
void CmpMask64(const uint64_t* vals, uint64_t t_lo, uint64_t t_hi,
               uint64_t* bitmap) {
  const uint64x2_t lo = vdupq_n_u64(t_lo);
  const uint64x2_t hi = vdupq_n_u64(t_hi);
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 2) {
      const uint64x2_t v = vld1q_u64(vals + w * 64 + j);
      const uint64x2_t in =
          vandq_u64(vcgeq_u64(v, lo), vcleq_u64(v, hi));
      bits |= (vgetq_lane_u64(in, 0) & 1u) << j;
      bits |= (vgetq_lane_u64(in, 1) & 1u) << (j + 1);
    }
    bitmap[w] = bits;
  }
}

// Double range selection: vcge/vcgt/vcle/vclt are ordered compares (a NaN
// operand yields a clear mask lane, matching Predicate::Matches).
template <bool LoOpen, bool HiOpen>
uint64_t SelectWord64(const double* v, double lo, double hi) {
  const float64x2_t l = vdupq_n_f64(lo);
  const float64x2_t h = vdupq_n_f64(hi);
  uint64_t bits = 0;
  for (unsigned j = 0; j < 64; j += 2) {
    const float64x2_t x = vld1q_f64(v + j);
    const uint64x2_t above = LoOpen ? vcgtq_f64(x, l) : vcgeq_f64(x, l);
    const uint64x2_t below = HiOpen ? vcltq_f64(x, h) : vcleq_f64(x, h);
    const uint64x2_t in = vandq_u64(above, below);
    bits |= (vgetq_lane_u64(in, 0) & 1u) << j;
    bits |= (vgetq_lane_u64(in, 1) & 1u) << (j + 1);
  }
  return bits;
}

// NEON has no compress instruction: branch-free store-and-advance.
unsigned CompactWord64(const double* v, uint64_t bits, double* out) {
  unsigned k = 0;
  for (unsigned i = 0; i < 64; ++i, bits >>= 1) {
    out[k] = v[i];
    k += static_cast<unsigned>(bits & 1u);
  }
  return k;
}

#include "alp/kernels/kernel_body.inc"

}  // namespace

const DecodeKernels* GetNeonKernels() { return &kKernels; }

}  // namespace alp::kernels

#else  // !defined(__aarch64__)

namespace alp::kernels {

const DecodeKernels* GetNeonKernels() { return nullptr; }

}  // namespace alp::kernels

#endif
