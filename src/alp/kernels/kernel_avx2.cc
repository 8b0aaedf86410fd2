// AVX2 dispatch tier. Compiled with -mavx2 (see src/CMakeLists.txt); on
// builds without the flag the TU degenerates to a nullptr getter and the
// dispatcher never offers the tier.
//
// AVX2 has no int64->double instruction, so the conversion uses the
// magic-constant split: the low 32 bits are blended into a double with a
// 2^52 exponent, the high 32 bits (sign-flipped via xor) into one with a
// 2^84 exponent, and one subtract + one add reassemble the value. Both
// halves are exact and the final add rounds once, so the result is the
// correctly-rounded double(v) for the *full* int64 range — required
// because the width sweep in tests/test_kernels.cc drives values far
// outside ALP's |d| < 2^51 encode invariant, and bit-exactness with the
// scalar tier must hold even there.

#include "alp/kernels/kernel_tiers.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>
#include <utility>

#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

constexpr Tier kSelfTier = Tier::kAvx2;

inline __m256d Int64ToDouble(__m256i v) {
  const __m256i magic_lo = _mm256_set1_epi64x(0x4330000000000000);  // 2^52
  const __m256i magic_hi = _mm256_set1_epi64x(0x4530000080000000);  // 2^84+2^63
  const __m256d magic_all =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x4530000080100000));  // +2^52
  const __m256i lo = _mm256_blend_epi32(magic_lo, v, 0x55);
  const __m256i hi = _mm256_xor_si256(_mm256_srli_epi64(v, 32), magic_hi);
  const __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(hi), magic_all);
  return _mm256_add_pd(hi_d, _mm256_castsi256_pd(lo));
}

template <bool Aligned>
inline void StorePd(double* p, __m256d v) {
  if constexpr (Aligned) {
    _mm256_store_pd(p, v);
  } else {
    _mm256_storeu_pd(p, v);
  }
}

template <bool Aligned>
void ConvertMul64Impl(const uint64_t* vals, uint64_t base, double f10_f,
                      double if10_e, double* out) {
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m256d ff = _mm256_set1_pd(f10_f);
  const __m256d ife = _mm256_set1_pd(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 4) {
    const __m256i v = _mm256_add_epi64(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(vals + i)), b);
    const __m256d d = Int64ToDouble(v);
    StorePd<Aligned>(out + i, _mm256_mul_pd(_mm256_mul_pd(d, ff), ife));
  }
}

void ConvertMul64(const uint64_t* vals, uint64_t base, double f10_f,
                  double if10_e, double* out) {
  if ((reinterpret_cast<uintptr_t>(out) & 31) == 0) {
    ConvertMul64Impl<true>(vals, base, f10_f, if10_e, out);
  } else {
    ConvertMul64Impl<false>(vals, base, f10_f, if10_e, out);
  }
}

template <bool Aligned>
void ConvertMul32Impl(const uint32_t* vals, uint32_t base, double f10_f,
                      double if10_e, float* out) {
  const __m256i b = _mm256_set1_epi32(static_cast<int>(base));
  const __m256d ff = _mm256_set1_pd(f10_f);
  const __m256d ife = _mm256_set1_pd(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m256i v = _mm256_add_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(vals + i)), b);
    const __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(v));
    const __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(v, 1));
    const __m128 flo =
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(lo, ff), ife));
    const __m128 fhi =
        _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_mul_pd(hi, ff), ife));
    const __m256 packed = _mm256_set_m128(fhi, flo);
    if constexpr (Aligned) {
      _mm256_store_ps(out + i, packed);
    } else {
      _mm256_storeu_ps(out + i, packed);
    }
  }
}

void ConvertMul32(const uint32_t* vals, uint32_t base, double f10_f,
                  double if10_e, float* out) {
  if ((reinterpret_cast<uintptr_t>(out) & 31) == 0) {
    ConvertMul32Impl<true>(vals, base, f10_f, if10_e, out);
  } else {
    ConvertMul32Impl<false>(vals, base, f10_f, if10_e, out);
  }
}

// ALP_rd glue: the left part comes from an 8-entry pre-shifted dictionary,
// fetched in-register with a gather (64-bit) / lane permute (32-bit).
void GlueJoin64(const uint64_t* codes, const uint64_t* right,
                const uint64_t* dict_shifted, double* out) {
  for (unsigned i = 0; i < kVectorSize; i += 4) {
    const __m256i c =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(codes + i));
    const __m256i left = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(dict_shifted), c, 8);
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(right + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(left, r));
  }
}

void GlueJoin32(const uint32_t* codes, const uint32_t* right,
                const uint32_t* dict_shifted, float* out) {
  const __m256i dict =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dict_shifted));
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m256i c =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(codes + i));
    const __m256i left = _mm256_permutevar8x32_epi32(dict, c);
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(right + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(left, r));
  }
}

// Exception patching stays scalar on AVX2 (no scatter instruction);
// exceptions average ~2% of a vector so this is off the critical path.
void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// Unsigned 64-bit range test. AVX2 only has a *signed* 64-bit compare, so
// both the lanes and the thresholds get their sign bit flipped first
// (x ^ 2^63 is an order-preserving map from unsigned to signed order).
// movemask_pd harvests 4 comparison sign bits per 256-bit vector; 16
// iterations fill one 64-lane bitmap word.
void CmpMask64(const uint64_t* vals, uint64_t t_lo, uint64_t t_hi,
               uint64_t* bitmap) {
  const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
  const __m256i lo =
      _mm256_set1_epi64x(static_cast<long long>(t_lo ^ (1ull << 63)));
  const __m256i hi =
      _mm256_set1_epi64x(static_cast<long long>(t_hi ^ (1ull << 63)));
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 4) {
      const __m256i v = _mm256_xor_si256(
          _mm256_load_si256(
              reinterpret_cast<const __m256i*>(vals + w * 64 + j)),
          flip);
      const __m256i outside = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v),
                                              _mm256_cmpgt_epi64(v, hi));
      const unsigned m =
          static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(outside)));
      bits |= static_cast<uint64_t>(~m & 0xF) << j;
    }
    bitmap[w] = bits;
  }
}

// Double range selection: ordered-quiet compares (a NaN operand compares
// false, matching Predicate::Matches); movemask_pd harvests 4 lanes.
template <bool LoOpen, bool HiOpen>
uint64_t SelectWord64(const double* v, double lo, double hi) {
  const __m256d l = _mm256_set1_pd(lo);
  const __m256d h = _mm256_set1_pd(hi);
  uint64_t bits = 0;
  for (unsigned j = 0; j < 64; j += 4) {
    const __m256d x = _mm256_loadu_pd(v + j);
    const __m256d in =
        _mm256_and_pd(_mm256_cmp_pd(x, l, LoOpen ? _CMP_GT_OQ : _CMP_GE_OQ),
                      _mm256_cmp_pd(x, h, HiOpen ? _CMP_LT_OQ : _CMP_LE_OQ));
    bits |= static_cast<uint64_t>(_mm256_movemask_pd(in)) << j;
  }
  return bits;
}

// Compaction permutes for every 4-lane mask: 32-bit lane indices for
// vpermps (each double is a pair of 32-bit lanes) moving the selected
// doubles to the front, plus the mask's survivor count.
struct CompactEntry {
  alignas(32) uint32_t perm[8];
  unsigned count;
};

constexpr auto kCompact4 = [] {
  std::array<CompactEntry, 16> t{};
  for (unsigned m = 0; m < 16; ++m) {
    unsigned k = 0;
    for (unsigned lane = 0; lane < 4; ++lane) {
      if (!(m & (1u << lane))) continue;
      t[m].perm[2 * k] = 2 * lane;
      t[m].perm[2 * k + 1] = 2 * lane + 1;
      ++k;
    }
    for (unsigned rest = k; rest < 4; ++rest) {
      t[m].perm[2 * rest] = 0;
      t[m].perm[2 * rest + 1] = 1;
    }
    t[m].count = k;
  }
  return t;
}();

// Permute the survivors to the front, then one full-width unaligned store
// at the survivor cursor (which trails the read position, so the store
// never passes this 4-lane chunk).
unsigned CompactWord64(const double* v, uint64_t bits, double* out) {
  if (bits == 0) return 0;
  unsigned k = 0;
  for (unsigned j = 0; j < 64; j += 4) {
    const CompactEntry& e = kCompact4[(bits >> j) & 0xF];
    const __m256 x = _mm256_castpd_ps(_mm256_loadu_pd(v + j));
    const __m256i idx =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(e.perm));
    _mm256_storeu_pd(out + k, _mm256_castps_pd(_mm256_permutevar8x32_ps(x, idx)));
    k += e.count;
  }
  return k;
}

#include "alp/kernels/kernel_body.inc"

}  // namespace

const DecodeKernels* GetAvx2Kernels() { return &kKernels; }

}  // namespace alp::kernels

#else  // !defined(__AVX2__)

namespace alp::kernels {

const DecodeKernels* GetAvx2Kernels() { return nullptr; }

}  // namespace alp::kernels

#endif
