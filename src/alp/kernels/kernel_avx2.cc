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
#include <limits>
#include <utility>

#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

constexpr Tier kSelfTier = Tier::kAvx2;

#include "alp/kernels/encode_portable.inc"

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

// ---------------------------------------------------------------------------
// Encode side. Whole registers here, the tail (fewer than one register of
// values) in the portable loop, which applies the same IEEE operations
// value by value.
// ---------------------------------------------------------------------------

constexpr uint8_t kMaskCount4[16] = {0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4};

/// Broadcast (e, f) multipliers.
struct Factors4 {
  __m256d f10_e, if10_f, f10_f, if10_e;
  explicit Factors4(const EncFactors& f)
      : f10_e(_mm256_set1_pd(f.f10_e)),
        if10_f(_mm256_set1_pd(f.if10_f)),
        f10_f(_mm256_set1_pd(f.f10_f)),
        if10_e(_mm256_set1_pd(f.if10_e)) {}
};

/// ALP_enc of 4 doubles (EncOne, lane-wise) together with the exact double
/// of the result: the low 52 mantissa bits m of scaled + 2^52 + 2^51 give
/// d = m - 2^51, and (2^52 + m) - (2^52 + 2^51) is that same integer as a
/// double, so the verify needs no int64 -> double conversion.
struct Encoded4 {
  __m256i d;
  __m256d as_double;
};

inline Encoded4 Encode4(__m256d x, const Factors4& f) {
  using D = alp::AlpTraits<double>;
  const __m256d magic = _mm256_set1_pd(D::kMagic);
  const __m256d scaled = _mm256_mul_pd(_mm256_mul_pd(x, f.f10_e), f.if10_f);
  const __m256i m = _mm256_and_si256(
      _mm256_castpd_si256(_mm256_add_pd(scaled, magic)),
      _mm256_set1_epi64x(static_cast<long long>(D::kMagicMantissaMask)));
  const __m256d two52_plus_m =
      _mm256_castsi256_pd(_mm256_or_si256(m, _mm256_set1_epi64x(0x4330000000000000)));
  return {_mm256_sub_epi64(m, _mm256_set1_epi64x(D::kMagicBias)),
          _mm256_sub_pd(two52_plus_m, magic)};
}

/// All-ones in lanes where in == its re-decode, bitwise.
inline __m256i RoundTrips4(__m256d x, const Encoded4& e, const Factors4& f) {
  const __m256d dec = _mm256_mul_pd(_mm256_mul_pd(e.as_double, f.f10_f), f.if10_e);
  return _mm256_cmpeq_epi64(_mm256_castpd_si256(dec), _mm256_castpd_si256(x));
}

inline unsigned FailMask4(__m256i ok) {
  return ~static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(ok))) & 0xF;
}

/// Valid-lane frame: lanes where `ok` is set fold d into lo / hi.
inline void FoldFrame4(__m256i d, __m256i ok, __m256i* lo, __m256i* hi) {
  *lo = _mm256_blendv_epi8(*lo, d, _mm256_and_si256(ok, _mm256_cmpgt_epi64(*lo, d)));
  *hi = _mm256_blendv_epi8(*hi, d, _mm256_and_si256(ok, _mm256_cmpgt_epi64(d, *hi)));
}

inline void ReduceFrame4(__m256i lo, __m256i hi, int64_t* frame) {
  alignas(32) int64_t l[4];
  alignas(32) int64_t h[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(l), lo);
  _mm256_store_si256(reinterpret_cast<__m256i*>(h), hi);
  for (unsigned k = 0; k < 4; ++k) {
    frame[0] = l[k] < frame[0] ? l[k] : frame[0];
    frame[1] = h[k] > frame[1] ? h[k] : frame[1];
  }
}

/// Float lanes: 4 floats widen to doubles, encode, and keep the low 32 bits
/// of each result (the scalar int64 -> int32 cast); the re-decode narrows
/// back to float with the same rounding as a scalar cast.
struct EncodedFloat4 {
  __m128i d;
  __m128i ok;
};

inline EncodedFloat4 EncodeFloat4(__m128 x, const Factors4& f) {
  const Encoded4 e = Encode4(_mm256_cvtps_pd(x), f);
  const __m128i d = _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(e.d, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
  const __m128 dec = _mm256_cvtpd_ps(
      _mm256_mul_pd(_mm256_mul_pd(_mm256_cvtepi32_pd(d), f.f10_f), f.if10_e));
  return {d, _mm_cmpeq_epi32(_mm_castps_si128(dec), _mm_castps_si128(x))};
}

inline unsigned FailMaskFloat4(__m128i ok) {
  return ~static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(ok))) & 0xF;
}

inline void FoldFrameFloat4(__m128i d, __m128i ok, __m128i* lo, __m128i* hi) {
  *lo = _mm_blendv_epi8(*lo, _mm_min_epi32(*lo, d), ok);
  *hi = _mm_blendv_epi8(*hi, _mm_max_epi32(*hi, d), ok);
}

inline void ReduceFrameFloat4(__m128i lo, __m128i hi, int32_t* frame) {
  alignas(16) int32_t l[4];
  alignas(16) int32_t h[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(l), lo);
  _mm_store_si128(reinterpret_cast<__m128i*>(h), hi);
  for (unsigned k = 0; k < 4; ++k) {
    frame[0] = l[k] < frame[0] ? l[k] : frame[0];
    frame[1] = h[k] > frame[1] ? h[k] : frame[1];
  }
}

unsigned AlpEncode64(const double* in, unsigned n, alp::Combination c, int64_t* encoded,
                     uint64_t* exc_bitmap, int64_t* frame) {
  ClearEncodeState<double>(exc_bitmap, frame);
  const EncFactors ef = FactorsOf(c);
  const Factors4 f(ef);
  __m256i lo = _mm256_set1_epi64x(frame[0]);
  __m256i hi = _mm256_set1_epi64x(frame[1]);
  unsigned exc = 0;
  const unsigned full = n & ~3u;
  for (unsigned i = 0; i < full; i += 4) {
    const __m256d x = _mm256_loadu_pd(in + i);
    const Encoded4 e = Encode4(x, f);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(encoded + i), e.d);
    const __m256i ok = RoundTrips4(x, e, f);
    FoldFrame4(e.d, ok, &lo, &hi);
    const unsigned fails = FailMask4(ok);
    exc_bitmap[i / 64] |= static_cast<uint64_t>(fails) << (i % 64);
    exc += kMaskCount4[fails];
  }
  ReduceFrame4(lo, hi, frame);
  return exc + EncodeRange(in, full, n, ef, encoded, exc_bitmap, &frame[0], &frame[1]);
}

unsigned AlpEncode32(const float* in, unsigned n, alp::Combination c, int32_t* encoded,
                     uint64_t* exc_bitmap, int32_t* frame) {
  ClearEncodeState<float>(exc_bitmap, frame);
  const EncFactors ef = FactorsOf(c);
  const Factors4 f(ef);
  __m128i lo = _mm_set1_epi32(frame[0]);
  __m128i hi = _mm_set1_epi32(frame[1]);
  unsigned exc = 0;
  const unsigned full = n & ~3u;
  for (unsigned i = 0; i < full; i += 4) {
    const EncodedFloat4 e = EncodeFloat4(_mm_loadu_ps(in + i), f);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(encoded + i), e.d);
    FoldFrameFloat4(e.d, e.ok, &lo, &hi);
    const unsigned fails = FailMaskFloat4(e.ok);
    exc_bitmap[i / 64] |= static_cast<uint64_t>(fails) << (i % 64);
    exc += kMaskCount4[fails];
  }
  ReduceFrameFloat4(lo, hi, frame);
  return exc + EncodeRange(in, full, n, ef, encoded, exc_bitmap, &frame[0], &frame[1]);
}

// The abort test runs once per register, so the count may overshoot
// abort_at by up to a register's lanes; the contract only promises
// ">= abort_at" then.
unsigned AlpEstimate64(const double* in, unsigned n, alp::Combination c,
                       unsigned abort_at, int64_t* frame) {
  frame[0] = std::numeric_limits<int64_t>::max();
  frame[1] = std::numeric_limits<int64_t>::min();
  const EncFactors ef = FactorsOf(c);
  const Factors4 f(ef);
  __m256i lo = _mm256_set1_epi64x(frame[0]);
  __m256i hi = _mm256_set1_epi64x(frame[1]);
  unsigned exc = 0;
  const unsigned full = n & ~3u;
  for (unsigned i = 0; i < full; i += 4) {
    const __m256d x = _mm256_loadu_pd(in + i);
    const Encoded4 e = Encode4(x, f);
    const __m256i ok = RoundTrips4(x, e, f);
    exc += kMaskCount4[FailMask4(ok)];
    if (exc >= abort_at) return exc;
    FoldFrame4(e.d, ok, &lo, &hi);
  }
  ReduceFrame4(lo, hi, frame);
  return EstimateRange(in, full, n, ef, exc, abort_at, &frame[0], &frame[1]);
}

unsigned AlpEstimate32(const float* in, unsigned n, alp::Combination c,
                       unsigned abort_at, int32_t* frame) {
  frame[0] = std::numeric_limits<int32_t>::max();
  frame[1] = std::numeric_limits<int32_t>::min();
  const EncFactors ef = FactorsOf(c);
  const Factors4 f(ef);
  __m128i lo = _mm_set1_epi32(frame[0]);
  __m128i hi = _mm_set1_epi32(frame[1]);
  unsigned exc = 0;
  const unsigned full = n & ~3u;
  for (unsigned i = 0; i < full; i += 4) {
    const EncodedFloat4 e = EncodeFloat4(_mm_loadu_ps(in + i), f);
    exc += kMaskCount4[FailMaskFloat4(e.ok)];
    if (exc >= abort_at) return exc;
    FoldFrameFloat4(e.d, e.ok, &lo, &hi);
  }
  ReduceFrameFloat4(lo, hi, frame);
  return EstimateRange(in, full, n, ef, exc, abort_at, &frame[0], &frame[1]);
}

// ALP_rd split: the left part is compared with all eight dictionary slots,
// from the last slot to the first so the first match wins. Unused slots
// hold 0x10000, which no 16-bit left part equals.
unsigned RdEncode64(const double* in, unsigned n, unsigned right_bits,
                    const uint16_t* dict, unsigned dict_size, uint16_t* codes,
                    uint64_t* right, uint64_t* exc_bitmap) {
  for (unsigned w = 0; w < alp::kVectorSize / 64; ++w) exc_bitmap[w] = 0;
  __m256i probe[alp::kRdMaxDictSize];
  for (unsigned d = 0; d < alp::kRdMaxDictSize; ++d) {
    probe[d] = _mm256_set1_epi64x(d < dict_size ? dict[d] : 0x10000);
  }
  // vpsrlq by a count >= 64 yields 0: the empty left part of the portable loop.
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(right_bits));
  const __m256i right_mask =
      _mm256_set1_epi64x(static_cast<long long>(RdRightMask<double>(right_bits)));
  const __m256i left_mask = _mm256_set1_epi64x(0xFFFF);
  const __m256i even_lanes = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  unsigned exc = 0;
  const unsigned full = n & ~3u;
  for (unsigned i = 0; i < full; i += 4) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i left = _mm256_and_si256(_mm256_srl_epi64(x, shift), left_mask);
    __m256i code = _mm256_setzero_si256();
    __m256i found = _mm256_setzero_si256();
    for (unsigned d = alp::kRdMaxDictSize; d-- > 0;) {
      const __m256i hit = _mm256_cmpeq_epi64(left, probe[d]);
      code = _mm256_blendv_epi8(code, _mm256_set1_epi64x(d), hit);
      found = _mm256_or_si256(found, hit);
    }
    // Codes < 8: the low halves of the 64-bit lanes, packed to 16 bits.
    const __m128i code32 =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(code, even_lanes));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(codes + i), _mm_packus_epi32(code32, code32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(right + i), _mm256_and_si256(x, right_mask));
    const unsigned miss = FailMask4(found);
    exc_bitmap[i / 64] |= static_cast<uint64_t>(miss) << (i % 64);
    exc += kMaskCount4[miss];
  }
  return exc + RdEncodeRange(in, full, n, right_bits, dict, dict_size, codes, right,
                             exc_bitmap);
}

unsigned RdEncode32(const float* in, unsigned n, unsigned right_bits,
                    const uint16_t* dict, unsigned dict_size, uint16_t* codes,
                    uint32_t* right, uint64_t* exc_bitmap) {
  for (unsigned w = 0; w < alp::kVectorSize / 64; ++w) exc_bitmap[w] = 0;
  __m256i probe[alp::kRdMaxDictSize];
  for (unsigned d = 0; d < alp::kRdMaxDictSize; ++d) {
    probe[d] = _mm256_set1_epi32(d < dict_size ? dict[d] : 0x10000);
  }
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(right_bits));
  const __m256i right_mask =
      _mm256_set1_epi32(static_cast<int>(RdRightMask<float>(right_bits)));
  const __m256i left_mask = _mm256_set1_epi32(0xFFFF);
  unsigned exc = 0;
  const unsigned full = n & ~7u;
  for (unsigned i = 0; i < full; i += 8) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i left = _mm256_and_si256(_mm256_srl_epi32(x, shift), left_mask);
    __m256i code = _mm256_setzero_si256();
    __m256i found = _mm256_setzero_si256();
    for (unsigned d = alp::kRdMaxDictSize; d-- > 0;) {
      const __m256i hit = _mm256_cmpeq_epi32(left, probe[d]);
      code = _mm256_blendv_epi8(code, _mm256_set1_epi32(static_cast<int>(d)), hit);
      found = _mm256_or_si256(found, hit);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i),
                     _mm_packus_epi32(_mm256_castsi256_si128(code),
                                      _mm256_extracti128_si256(code, 1)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(right + i), _mm256_and_si256(x, right_mask));
    const unsigned miss =
        ~static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(found))) & 0xFF;
    exc_bitmap[i / 64] |= static_cast<uint64_t>(miss) << (i % 64);
    exc += kMaskCount4[miss & 0xF] + kMaskCount4[miss >> 4];
  }
  return exc + RdEncodeRange(in, full, n, right_bits, dict, dict_size, codes, right,
                             exc_bitmap);
}

// Zone map: vminpd(x, acc) is exactly `x < acc ? x : acc` per lane (a NaN
// x or an equal zero keeps acc), so each of the four accumulators follows
// the sequential rule over its own lanes. Only the sign of a zero result
// can depend on which lane saw it first; FixZeroSigns settles that.
template <typename T>
void MinMaxImpl(const T* in, unsigned n, double* min_max) {
  const auto load4 = [in](unsigned i) {
    if constexpr (sizeof(T) == 8) {
      return _mm256_loadu_pd(in + i);
    } else {
      return _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    }
  };
  __m256d lo[4];
  __m256d hi[4];
  for (unsigned k = 0; k < 4; ++k) {
    lo[k] = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    hi[k] = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  }
  unsigned i = 0;
  for (; i + 16 <= n; i += 16) {
    for (unsigned k = 0; k < 4; ++k) {
      const __m256d x = load4(i + 4 * k);
      lo[k] = _mm256_min_pd(x, lo[k]);
      hi[k] = _mm256_max_pd(x, hi[k]);
    }
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d x = load4(i);
    lo[0] = _mm256_min_pd(x, lo[0]);
    hi[0] = _mm256_max_pd(x, hi[0]);
  }
  alignas(32) double l[4];
  alignas(32) double h[4];
  _mm256_store_pd(l, _mm256_min_pd(_mm256_min_pd(lo[0], lo[1]), _mm256_min_pd(lo[2], lo[3])));
  _mm256_store_pd(h, _mm256_max_pd(_mm256_max_pd(hi[0], hi[1]), _mm256_max_pd(hi[2], hi[3])));
  min_max[0] = std::numeric_limits<double>::infinity();
  min_max[1] = -std::numeric_limits<double>::infinity();
  for (unsigned k = 0; k < 4; ++k) {
    min_max[0] = l[k] < min_max[0] ? l[k] : min_max[0];
    min_max[1] = h[k] > min_max[1] ? h[k] : min_max[1];
  }
  MinMaxRange(in, i, n, &min_max[0], &min_max[1]);
  FixZeroSigns(in, n, min_max);
}

void MinMax64(const double* in, unsigned n, double* min_max) { MinMaxImpl(in, n, min_max); }
void MinMax32(const float* in, unsigned n, double* min_max) { MinMaxImpl(in, n, min_max); }

#include "alp/kernels/kernel_body.inc"

}  // namespace

const KernelTable* GetAvx2Kernels() { return &kKernels; }

}  // namespace alp::kernels

#else  // !defined(__AVX2__)

namespace alp::kernels {

const KernelTable* GetAvx2Kernels() { return nullptr; }

}  // namespace alp::kernels

#endif
