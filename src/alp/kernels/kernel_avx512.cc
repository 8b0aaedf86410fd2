// AVX-512 dispatch tier, compiled with -mavx512f -mavx512dq (see
// src/CMakeLists.txt). DQ supplies vcvtqq2pd, the native int64->double
// conversion the AVX2 tier has to emulate; F supplies the 8-lane permute
// that keeps the whole ALP_rd dictionary in one register and the scatter
// used for exception patching. On the encode side, mask registers carry
// the exception bitmaps and the valid-lane FOR frame directly.

#include "alp/kernels/kernel_tiers.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

constexpr Tier kSelfTier = Tier::kAvx512;

#include "alp/kernels/encode_portable.inc"

template <bool Aligned>
inline void StorePd(double* p, __m512d v) {
  if constexpr (Aligned) {
    _mm512_store_pd(p, v);
  } else {
    _mm512_storeu_pd(p, v);
  }
}

template <bool Aligned>
void ConvertMul64Impl(const uint64_t* vals, uint64_t base, double f10_f,
                      double if10_e, double* out) {
  const __m512i b = _mm512_set1_epi64(static_cast<long long>(base));
  const __m512d ff = _mm512_set1_pd(f10_f);
  const __m512d ife = _mm512_set1_pd(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m512i v = _mm512_add_epi64(_mm512_load_si512(vals + i), b);
    const __m512d d = _mm512_cvtepi64_pd(v);
    StorePd<Aligned>(out + i, _mm512_mul_pd(_mm512_mul_pd(d, ff), ife));
  }
}

void ConvertMul64(const uint64_t* vals, uint64_t base, double f10_f,
                  double if10_e, double* out) {
  if ((reinterpret_cast<uintptr_t>(out) & 63) == 0) {
    ConvertMul64Impl<true>(vals, base, f10_f, if10_e, out);
  } else {
    ConvertMul64Impl<false>(vals, base, f10_f, if10_e, out);
  }
}

template <bool Aligned>
void ConvertMul32Impl(const uint32_t* vals, uint32_t base, double f10_f,
                      double if10_e, float* out) {
  const __m512i b = _mm512_set1_epi32(static_cast<int>(base));
  const __m512d ff = _mm512_set1_pd(f10_f);
  const __m512d ife = _mm512_set1_pd(if10_e);
  for (unsigned i = 0; i < kVectorSize; i += 16) {
    const __m512i v = _mm512_add_epi32(_mm512_load_si512(vals + i), b);
    const __m512d lo = _mm512_cvtepi32_pd(_mm512_castsi512_si256(v));
    const __m512d hi = _mm512_cvtepi32_pd(_mm512_extracti32x8_epi32(v, 1));
    const __m256 flo =
        _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_mul_pd(lo, ff), ife));
    const __m256 fhi =
        _mm512_cvtpd_ps(_mm512_mul_pd(_mm512_mul_pd(hi, ff), ife));
    const __m512 packed = _mm512_insertf32x8(_mm512_castps256_ps512(flo), fhi, 1);
    if constexpr (Aligned) {
      _mm512_store_ps(out + i, packed);
    } else {
      _mm512_storeu_ps(out + i, packed);
    }
  }
}

void ConvertMul32(const uint32_t* vals, uint32_t base, double f10_f,
                  double if10_e, float* out) {
  if ((reinterpret_cast<uintptr_t>(out) & 63) == 0) {
    ConvertMul32Impl<true>(vals, base, f10_f, if10_e, out);
  } else {
    ConvertMul32Impl<false>(vals, base, f10_f, if10_e, out);
  }
}

// ALP_rd glue: the whole 8-entry pre-shifted dictionary lives in one zmm
// register; vpermq/vpermd turn the unpacked codes directly into left parts.
void GlueJoin64(const uint64_t* codes, const uint64_t* right,
                const uint64_t* dict_shifted, double* out) {
  const __m512i dict = _mm512_loadu_si512(dict_shifted);
  for (unsigned i = 0; i < kVectorSize; i += 8) {
    const __m512i c = _mm512_load_si512(codes + i);
    const __m512i left = _mm512_permutexvar_epi64(c, dict);
    const __m512i r = _mm512_loadu_si512(right + i);
    _mm512_storeu_si512(out + i, _mm512_or_si512(left, r));
  }
}

void GlueJoin32(const uint32_t* codes, const uint32_t* right,
                const uint32_t* dict_shifted, float* out) {
  // Codes are < 8, so only the low 256-bit half matters; broadcast it so
  // any lane of the permute index is in range.
  const __m512i dict = _mm512_broadcast_i32x8(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dict_shifted)));
  for (unsigned i = 0; i < kVectorSize; i += 16) {
    const __m512i c = _mm512_load_si512(codes + i);
    const __m512i left = _mm512_permutexvar_epi32(c, dict);
    const __m512i r = _mm512_loadu_si512(right + i);
    _mm512_storeu_si512(out + i, _mm512_or_si512(left, r));
  }
}

// Exception patching via scatter. Scatter writes are ordered by element
// index with later elements winning on duplicate positions — the same
// semantics as the scalar patch loop.
void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  unsigned i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i p32 = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(pos + i)));
    const __m512d v = _mm512_castsi512_pd(_mm512_loadu_si512(bits + i));
    _mm512_i32scatter_pd(out, p32, v, 8);
  }
  for (; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  unsigned i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i p32 = _mm512_cvtepu16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + i)));
    const __m512 v = _mm512_castsi512_ps(_mm512_loadu_si512(bits + i));
    _mm512_i32scatter_ps(out, p32, v, 4);
  }
  for (; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// Native unsigned 64-bit mask compares; each 8-lane pair of compares
// yields one __mmask8, eight of which assemble a 64-lane bitmap word.
void CmpMask64(const uint64_t* vals, uint64_t t_lo, uint64_t t_hi,
               uint64_t* bitmap) {
  const __m512i lo = _mm512_set1_epi64(static_cast<long long>(t_lo));
  const __m512i hi = _mm512_set1_epi64(static_cast<long long>(t_hi));
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned j = 0; j < 64; j += 8) {
      const __m512i v = _mm512_load_si512(vals + w * 64 + j);
      const __mmask8 m = _mm512_cmpge_epu64_mask(v, lo) &
                         _mm512_cmple_epu64_mask(v, hi);
      bits |= static_cast<uint64_t>(m) << j;
    }
    bitmap[w] = bits;
  }
}

// Double range selection: two ordered-quiet mask compares per 8 lanes
// (a NaN operand compares false, matching Predicate::Matches).
template <bool LoOpen, bool HiOpen>
uint64_t SelectWord64(const double* v, double lo, double hi) {
  const __m512d l = _mm512_set1_pd(lo);
  const __m512d h = _mm512_set1_pd(hi);
  uint64_t bits = 0;
  for (unsigned j = 0; j < 64; j += 8) {
    const __m512d x = _mm512_loadu_pd(v + j);
    const __mmask8 above =
        _mm512_cmp_pd_mask(x, l, LoOpen ? _CMP_GT_OQ : _CMP_GE_OQ);
    const __mmask8 in =
        _mm512_mask_cmp_pd_mask(above, x, h, HiOpen ? _CMP_LT_OQ : _CMP_LE_OQ);
    bits |= static_cast<uint64_t>(in) << j;
  }
  return bits;
}

// Set-bit counts of every 8-lane mask (popcnt is not part of this TU's
// target flags, and a libgcc call per mask would dominate the loop).
constexpr auto kMaskCount8 = [] {
  std::array<uint8_t, 256> t{};
  for (unsigned m = 0; m < 256; ++m) t[m] = static_cast<uint8_t>(std::popcount(m));
  return t;
}();

// vcompresspd into a register, then one full-width unaligned store at the
// survivor cursor: the lanes past the survivors are overwritten by the
// next store (or left unspecified), and never reach past this 8-lane
// chunk's own position since the cursor trails the read position.
unsigned CompactWord64(const double* v, uint64_t bits, double* out) {
  if (bits == 0) return 0;
  unsigned k = 0;
  for (unsigned j = 0; j < 64; j += 8) {
    const __mmask8 m = static_cast<__mmask8>(bits >> j);
    _mm512_storeu_pd(out + k, _mm512_maskz_compress_pd(m, _mm512_loadu_pd(v + j)));
    k += kMaskCount8[m];
  }
  return k;
}

// ---------------------------------------------------------------------------
// Encode side. Each kernel runs whole registers here and hands the tail
// (fewer than one register of values) to the portable loop, which applies
// the same IEEE operations value by value.
// ---------------------------------------------------------------------------

/// Broadcast (e, f) multipliers.
struct Factors8 {
  __m512d f10_e, if10_f, f10_f, if10_e;
  explicit Factors8(const EncFactors& f)
      : f10_e(_mm512_set1_pd(f.f10_e)),
        if10_f(_mm512_set1_pd(f.if10_f)),
        f10_f(_mm512_set1_pd(f.f10_f)),
        if10_e(_mm512_set1_pd(f.if10_e)) {}
};

/// ALP_enc of 8 doubles: the scaled value plus 2^52 + 2^51, low mantissa
/// bits minus the bias (EncOne, lane-wise).
inline __m512i Encode8(__m512d x, const Factors8& f) {
  using D = alp::AlpTraits<double>;
  const __m512d scaled = _mm512_mul_pd(_mm512_mul_pd(x, f.f10_e), f.if10_f);
  const __m512i bits = _mm512_castpd_si512(_mm512_add_pd(scaled, _mm512_set1_pd(D::kMagic)));
  return _mm512_sub_epi64(
      _mm512_and_si512(bits, _mm512_set1_epi64(static_cast<long long>(D::kMagicMantissaMask))),
      _mm512_set1_epi64(D::kMagicBias));
}

/// ALP_dec of 8 encoded doubles (vcvtqq2pd is exact for |d| < 2^53).
inline __m512d Decode8(__m512i d, const Factors8& f) {
  return _mm512_mul_pd(_mm512_mul_pd(_mm512_cvtepi64_pd(d), f.f10_f), f.if10_e);
}

/// Float lanes: 16 floats widen to two registers of doubles, encode, and
/// truncate to int32 (vpmovqd) exactly as the scalar cast does; the
/// re-decode narrows back to float with the same rounding as a scalar cast.
struct Encoded16 {
  __m512i d;       // 16 int32 lanes.
  __mmask16 fails;
};

inline Encoded16 EncodeFloat16(__m512 x, const Factors8& f) {
  const __m256i lo = _mm512_cvtepi64_epi32(Encode8(_mm512_cvtps_pd(_mm512_castps512_ps256(x)), f));
  const __m256i hi = _mm512_cvtepi64_epi32(Encode8(_mm512_cvtps_pd(_mm512_extractf32x8_ps(x, 1)), f));
  const __m256 dec_lo = _mm512_cvtpd_ps(
      _mm512_mul_pd(_mm512_mul_pd(_mm512_cvtepi32_pd(lo), f.f10_f), f.if10_e));
  const __m256 dec_hi = _mm512_cvtpd_ps(
      _mm512_mul_pd(_mm512_mul_pd(_mm512_cvtepi32_pd(hi), f.f10_f), f.if10_e));
  const __m512 dec = _mm512_insertf32x8(_mm512_castps256_ps512(dec_lo), dec_hi, 1);
  return {_mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1),
          _mm512_cmpneq_epi32_mask(_mm512_castps_si512(dec), _mm512_castps_si512(x))};
}

inline unsigned MaskCount16(__mmask16 m) {
  return kMaskCount8[m & 0xFF] + kMaskCount8[m >> 8];
}

unsigned AlpEncode64(const double* in, unsigned n, alp::Combination c, int64_t* encoded,
                     uint64_t* exc_bitmap, int64_t* frame) {
  ClearEncodeState<double>(exc_bitmap, frame);
  const EncFactors ef = FactorsOf(c);
  const Factors8 f(ef);
  __m512i lo = _mm512_set1_epi64(frame[0]);
  __m512i hi = _mm512_set1_epi64(frame[1]);
  unsigned exc = 0;
  const unsigned full = n & ~7u;
  for (unsigned i = 0; i < full; i += 8) {
    const __m512d x = _mm512_loadu_pd(in + i);
    const __m512i d = Encode8(x, f);
    _mm512_storeu_si512(encoded + i, d);
    const __mmask8 fails = _mm512_cmpneq_epi64_mask(_mm512_castpd_si512(Decode8(d, f)),
                                                    _mm512_castpd_si512(x));
    const __mmask8 valid = static_cast<__mmask8>(~fails);
    lo = _mm512_mask_min_epi64(lo, valid, lo, d);
    hi = _mm512_mask_max_epi64(hi, valid, hi, d);
    exc_bitmap[i / 64] |= static_cast<uint64_t>(fails) << (i % 64);
    exc += kMaskCount8[fails];
  }
  frame[0] = _mm512_reduce_min_epi64(lo);
  frame[1] = _mm512_reduce_max_epi64(hi);
  return exc + EncodeRange(in, full, n, ef, encoded, exc_bitmap, &frame[0], &frame[1]);
}

unsigned AlpEncode32(const float* in, unsigned n, alp::Combination c, int32_t* encoded,
                     uint64_t* exc_bitmap, int32_t* frame) {
  ClearEncodeState<float>(exc_bitmap, frame);
  const EncFactors ef = FactorsOf(c);
  const Factors8 f(ef);
  __m512i lo = _mm512_set1_epi32(frame[0]);
  __m512i hi = _mm512_set1_epi32(frame[1]);
  unsigned exc = 0;
  const unsigned full = n & ~15u;
  for (unsigned i = 0; i < full; i += 16) {
    const Encoded16 e = EncodeFloat16(_mm512_loadu_ps(in + i), f);
    _mm512_storeu_si512(encoded + i, e.d);
    const __mmask16 valid = static_cast<__mmask16>(~e.fails);
    lo = _mm512_mask_min_epi32(lo, valid, lo, e.d);
    hi = _mm512_mask_max_epi32(hi, valid, hi, e.d);
    exc_bitmap[i / 64] |= static_cast<uint64_t>(e.fails) << (i % 64);
    exc += MaskCount16(e.fails);
  }
  frame[0] = _mm512_reduce_min_epi32(lo);
  frame[1] = _mm512_reduce_max_epi32(hi);
  return exc + EncodeRange(in, full, n, ef, encoded, exc_bitmap, &frame[0], &frame[1]);
}

// The abort test runs once per register, so the count may overshoot
// abort_at by up to a register's lanes; the contract only promises
// ">= abort_at" then.
unsigned AlpEstimate64(const double* in, unsigned n, alp::Combination c,
                       unsigned abort_at, int64_t* frame) {
  const EncFactors ef = FactorsOf(c);
  const Factors8 f(ef);
  __m512i lo = _mm512_set1_epi64(std::numeric_limits<int64_t>::max());
  __m512i hi = _mm512_set1_epi64(std::numeric_limits<int64_t>::min());
  unsigned exc = 0;
  const unsigned full = n & ~7u;
  for (unsigned i = 0; i < full; i += 8) {
    const __m512d x = _mm512_loadu_pd(in + i);
    const __m512i d = Encode8(x, f);
    const __mmask8 fails = _mm512_cmpneq_epi64_mask(_mm512_castpd_si512(Decode8(d, f)),
                                                    _mm512_castpd_si512(x));
    exc += kMaskCount8[fails];
    if (exc >= abort_at) return exc;
    const __mmask8 valid = static_cast<__mmask8>(~fails);
    lo = _mm512_mask_min_epi64(lo, valid, lo, d);
    hi = _mm512_mask_max_epi64(hi, valid, hi, d);
  }
  frame[0] = _mm512_reduce_min_epi64(lo);
  frame[1] = _mm512_reduce_max_epi64(hi);
  return EstimateRange(in, full, n, ef, exc, abort_at, &frame[0], &frame[1]);
}

unsigned AlpEstimate32(const float* in, unsigned n, alp::Combination c,
                       unsigned abort_at, int32_t* frame) {
  const EncFactors ef = FactorsOf(c);
  const Factors8 f(ef);
  __m512i lo = _mm512_set1_epi32(std::numeric_limits<int32_t>::max());
  __m512i hi = _mm512_set1_epi32(std::numeric_limits<int32_t>::min());
  unsigned exc = 0;
  const unsigned full = n & ~15u;
  for (unsigned i = 0; i < full; i += 16) {
    const Encoded16 e = EncodeFloat16(_mm512_loadu_ps(in + i), f);
    exc += MaskCount16(e.fails);
    if (exc >= abort_at) return exc;
    const __mmask16 valid = static_cast<__mmask16>(~e.fails);
    lo = _mm512_mask_min_epi32(lo, valid, lo, e.d);
    hi = _mm512_mask_max_epi32(hi, valid, hi, e.d);
  }
  frame[0] = _mm512_reduce_min_epi32(lo);
  frame[1] = _mm512_reduce_max_epi32(hi);
  return EstimateRange(in, full, n, ef, exc, abort_at, &frame[0], &frame[1]);
}

// ALP_rd split: the left part is probed against all eight dictionary slots
// with vector compares, from the last slot to the first so the first match
// wins. Unused slots hold 0x10000, which no 16-bit left part equals.
unsigned RdEncode64(const double* in, unsigned n, unsigned right_bits,
                    const uint16_t* dict, unsigned dict_size, uint16_t* codes,
                    uint64_t* right, uint64_t* exc_bitmap) {
  for (unsigned w = 0; w < alp::kVectorSize / 64; ++w) exc_bitmap[w] = 0;
  __m512i probe[alp::kRdMaxDictSize];
  for (unsigned d = 0; d < alp::kRdMaxDictSize; ++d) {
    probe[d] = _mm512_set1_epi64(d < dict_size ? dict[d] : 0x10000);
  }
  // vpsrlq by a count >= 64 yields 0: the empty left part of the portable loop.
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(right_bits));
  const __m512i right_mask =
      _mm512_set1_epi64(static_cast<long long>(RdRightMask<double>(right_bits)));
  const __m512i left_mask = _mm512_set1_epi64(0xFFFF);
  unsigned exc = 0;
  const unsigned full = n & ~7u;
  for (unsigned i = 0; i < full; i += 8) {
    const __m512i x = _mm512_loadu_si512(in + i);
    const __m512i left = _mm512_and_si512(_mm512_srl_epi64(x, shift), left_mask);
    __m512i code = _mm512_setzero_si512();
    __mmask8 found = 0;
    for (unsigned d = alp::kRdMaxDictSize; d-- > 0;) {
      const __mmask8 hit = _mm512_cmpeq_epi64_mask(left, probe[d]);
      code = _mm512_mask_mov_epi64(code, hit, _mm512_set1_epi64(d));
      found = static_cast<__mmask8>(found | hit);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i), _mm512_cvtepi64_epi16(code));
    _mm512_storeu_si512(right + i, _mm512_and_si512(x, right_mask));
    const __mmask8 miss = static_cast<__mmask8>(~found);
    exc_bitmap[i / 64] |= static_cast<uint64_t>(miss) << (i % 64);
    exc += kMaskCount8[miss];
  }
  return exc + RdEncodeRange(in, full, n, right_bits, dict, dict_size, codes, right,
                             exc_bitmap);
}

unsigned RdEncode32(const float* in, unsigned n, unsigned right_bits,
                    const uint16_t* dict, unsigned dict_size, uint16_t* codes,
                    uint32_t* right, uint64_t* exc_bitmap) {
  for (unsigned w = 0; w < alp::kVectorSize / 64; ++w) exc_bitmap[w] = 0;
  __m512i probe[alp::kRdMaxDictSize];
  for (unsigned d = 0; d < alp::kRdMaxDictSize; ++d) {
    probe[d] = _mm512_set1_epi32(d < dict_size ? dict[d] : 0x10000);
  }
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(right_bits));
  const __m512i right_mask =
      _mm512_set1_epi32(static_cast<int>(RdRightMask<float>(right_bits)));
  const __m512i left_mask = _mm512_set1_epi32(0xFFFF);
  unsigned exc = 0;
  const unsigned full = n & ~15u;
  for (unsigned i = 0; i < full; i += 16) {
    const __m512i x = _mm512_loadu_si512(in + i);
    const __m512i left = _mm512_and_si512(_mm512_srl_epi32(x, shift), left_mask);
    __m512i code = _mm512_setzero_si512();
    __mmask16 found = 0;
    for (unsigned d = alp::kRdMaxDictSize; d-- > 0;) {
      const __mmask16 hit = _mm512_cmpeq_epi32_mask(left, probe[d]);
      code = _mm512_mask_mov_epi32(code, hit, _mm512_set1_epi32(static_cast<int>(d)));
      found = static_cast<__mmask16>(found | hit);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes + i), _mm512_cvtepi32_epi16(code));
    _mm512_storeu_si512(right + i, _mm512_and_si512(x, right_mask));
    const __mmask16 miss = static_cast<__mmask16>(~found);
    exc_bitmap[i / 64] |= static_cast<uint64_t>(miss) << (i % 64);
    exc += MaskCount16(miss);
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
  const auto load8 = [in](unsigned i) {
    if constexpr (sizeof(T) == 8) {
      return _mm512_loadu_pd(in + i);
    } else {
      return _mm512_cvtps_pd(_mm256_loadu_ps(in + i));
    }
  };
  __m512d lo[4];
  __m512d hi[4];
  for (unsigned k = 0; k < 4; ++k) {
    lo[k] = _mm512_set1_pd(std::numeric_limits<double>::infinity());
    hi[k] = _mm512_set1_pd(-std::numeric_limits<double>::infinity());
  }
  unsigned i = 0;
  for (; i + 32 <= n; i += 32) {
    for (unsigned k = 0; k < 4; ++k) {
      const __m512d x = load8(i + 8 * k);
      lo[k] = _mm512_min_pd(x, lo[k]);
      hi[k] = _mm512_max_pd(x, hi[k]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d x = load8(i);
    lo[0] = _mm512_min_pd(x, lo[0]);
    hi[0] = _mm512_max_pd(x, hi[0]);
  }
  min_max[0] = _mm512_reduce_min_pd(
      _mm512_min_pd(_mm512_min_pd(lo[0], lo[1]), _mm512_min_pd(lo[2], lo[3])));
  min_max[1] = _mm512_reduce_max_pd(
      _mm512_max_pd(_mm512_max_pd(hi[0], hi[1]), _mm512_max_pd(hi[2], hi[3])));
  MinMaxRange(in, i, n, &min_max[0], &min_max[1]);
  FixZeroSigns(in, n, min_max);
}

void MinMax64(const double* in, unsigned n, double* min_max) { MinMaxImpl(in, n, min_max); }
void MinMax32(const float* in, unsigned n, double* min_max) { MinMaxImpl(in, n, min_max); }

#include "alp/kernels/kernel_body.inc"

}  // namespace

const KernelTable* GetAvx512Kernels() { return &kKernels; }

}  // namespace alp::kernels

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace alp::kernels {

const KernelTable* GetAvx512Kernels() { return nullptr; }

}  // namespace alp::kernels

#endif
