#ifndef ALP_ALP_CONSTANTS_H_
#define ALP_ALP_CONSTANTS_H_

#include <cstdint>

#include "util/bits.h"

/// \file constants.h
/// Numeric constants and per-type traits for the ALP encoding (Section 3 of
/// the paper): exact powers of ten, inverse powers of ten, the magic numbers
/// behind the SIMD-friendly fast rounding trick, and the exponent limits for
/// 64-bit doubles and 32-bit floats.

namespace alp {

/// ALP operates on vectors of 1024 values (paper Section 2.4 / Section 4).
inline constexpr unsigned kVectorSize = 1024;

/// A rowgroup is 100 consecutive vectors (paper Section 4, "Sampling
/// Parameters": w = 100, mirroring DuckDB rowgroup sizes).
inline constexpr unsigned kRowgroupVectors = 100;
inline constexpr unsigned kRowgroupSize = kVectorSize * kRowgroupVectors;

/// Maximum ALP_rd left-part dictionary size (paper Section 3.4: 2^3).
inline constexpr unsigned kRdMaxDictSize = 8;

/// One (exponent e, factor f) pair; f <= e always holds.
struct Combination {
  uint8_t e = 0;
  uint8_t f = 0;

  friend bool operator==(const Combination&, const Combination&) = default;
};

/// Per-type parameters of the ALP decimal encoding.
///
/// The fast rounding trick (paper Section 3.1, "Fast Rounding") adds
/// 2^(m-1) + 2^(m-2) (m = mantissa bits + 1) so the value lands in the
/// binade where doubles cannot have fractional parts; the rounded integer
/// can then be read branchlessly from the low mantissa bits.
template <typename T>
struct AlpTraits;

template <>
struct AlpTraits<double> {
  using Int = int64_t;
  using Uint = uint64_t;

  /// Largest exponent e: 10^18 is the largest power of ten that both has an
  /// exact double representation and keeps round-trippable integers inside
  /// the fast-rounding range.
  static constexpr int kMaxExponent = 18;

  /// 2^52 + 2^51: the fast-rounding magic number.
  static constexpr double kMagic = 6755399441055744.0;

  /// After adding kMagic, the low 52 mantissa bits hold (value + 2^51).
  static constexpr uint64_t kMagicMantissaMask = (uint64_t{1} << 52) - 1;
  static constexpr int64_t kMagicBias = int64_t{1} << 51;

  /// Storage cost of one exception: raw value + 16-bit position.
  static constexpr unsigned kExceptionBits = 64 + 16;

  /// Bits per raw (uncompressed) value.
  static constexpr unsigned kValueBits = 64;

  /// ALP estimates above this many bits/value make the rowgroup fall back
  /// to ALP_rd (Section 3.4: exceptions pile up and integers exceed 2^48).
  static constexpr unsigned kRdThresholdBits = 48;

  /// Exact positive powers of ten, F10[e] == 10^e.
  static constexpr double kF10[kMaxExponent + 1] = {
      1.0,
      10.0,
      100.0,
      1000.0,
      10000.0,
      100000.0,
      1000000.0,
      10000000.0,
      100000000.0,
      1000000000.0,
      10000000000.0,
      100000000000.0,
      1000000000000.0,
      10000000000000.0,
      100000000000000.0,
      1000000000000000.0,
      10000000000000000.0,
      100000000000000000.0,
      1000000000000000000.0,
  };

  /// Inverse powers of ten, iF10[e] ~= 10^-e (inexact above e = 0; the whole
  /// point of the paper's Section 2.5 analysis).
  static constexpr double kIF10[kMaxExponent + 1] = {
      1.0,
      0.1,
      0.01,
      0.001,
      0.0001,
      0.00001,
      0.000001,
      0.0000001,
      0.00000001,
      0.000000001,
      0.0000000001,
      0.00000000001,
      0.000000000001,
      0.0000000000001,
      0.00000000000001,
      0.000000000000001,
      0.0000000000000001,
      0.00000000000000001,
      0.000000000000000001,
  };
};

template <>
struct AlpTraits<float> {
  using Int = int32_t;
  using Uint = uint32_t;

  /// 10^10 is exactly representable in float (2^10 * 5^10, 5^10 < 2^24).
  static constexpr int kMaxExponent = 10;

  /// 2^23 + 2^22.
  static constexpr float kMagic = 12582912.0f;
  static constexpr uint32_t kMagicMantissaMask = (uint32_t{1} << 23) - 1;
  static constexpr int32_t kMagicBias = int32_t{1} << 22;

  static constexpr unsigned kExceptionBits = 32 + 16;
  static constexpr unsigned kValueBits = 32;

  /// Scaled-down fallback threshold for the 32-bit port (raw is 32 bits;
  /// ALP_rd lands around 28, cf. Table 7).
  static constexpr unsigned kRdThresholdBits = 22;

  static constexpr float kF10[kMaxExponent + 1] = {
      1.0f,     10.0f,     100.0f,     1000.0f,     10000.0f,     100000.0f,
      1000000.0f, 10000000.0f, 100000000.0f, 1000000000.0f, 10000000000.0f,
  };

  static constexpr float kIF10[kMaxExponent + 1] = {
      1.0f,       0.1f,       0.01f,       0.001f,       0.0001f,      0.00001f,
      0.000001f,  0.0000001f, 0.00000001f, 0.000000001f, 0.0000000001f,
  };
};

/// The branchless fast-rounding primitive from Algorithm 1: valid for
/// |v| < 2^51 (double) / 2^22 (float); out-of-range inputs produce a
/// deterministic wrong value that the encoder's verification pass turns
/// into an exception (never undefined behaviour).
inline int64_t FastRound(double v) {
  const uint64_t bits = BitsOf(v + AlpTraits<double>::kMagic);
  return static_cast<int64_t>(bits & AlpTraits<double>::kMagicMantissaMask) -
         AlpTraits<double>::kMagicBias;
}

inline int32_t FastRound(float v) {
  const uint32_t bits = BitsOf(v + AlpTraits<float>::kMagic);
  return static_cast<int32_t>(bits & AlpTraits<float>::kMagicMantissaMask) -
         AlpTraits<float>::kMagicBias;
}

}  // namespace alp

#endif  // ALP_ALP_CONSTANTS_H_
