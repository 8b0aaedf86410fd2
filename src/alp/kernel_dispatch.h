#ifndef ALP_ALP_KERNEL_DISPATCH_H_
#define ALP_ALP_KERNEL_DISPATCH_H_

#include <cstdint>
#include <string_view>

#include "alp/constants.h"
#include "fastlanes/ffor.h"

/// \file kernel_dispatch.h
/// Runtime ISA dispatch for the decode hot path.
///
/// The paper's decompression speed rests on the fused
/// unFFOR -> int->double convert -> e/f multiply kernel compiling to wide
/// SIMD. Instead of baking one ISA into the binary at build time
/// (-march=native), every ISA variant is compiled into its own translation
/// unit with per-file target flags (-mavx2, -mavx512f -mavx512dq; see
/// src/alp/kernels/ and src/CMakeLists.txt) and one generic binary carries
/// all of them. The CPU is probed once on first use (cpuid on x86-64,
/// getauxval on AArch64) and the best supported tier is selected.
///
/// Tiers:
///   - scalar: portable C++ (the compiler may still auto-vectorize it for
///     the build's baseline target). Always present; the bit-exactness
///     reference.
///   - avx2:   AVX2 intrinsics; exact full-range int64->double conversion
///     via the 2^52/2^84 magic-constant split (AVX2 has no vcvtqq2pd).
///   - avx512: AVX-512F+DQ intrinsics; native vcvtqq2pd, in-register
///     dictionary via vpermq, scatter-based exception patching.
///   - neon:   AArch64 ASIMD intrinsics.
///
/// Every tier is bit-exact: each step of the fused pipeline (int->double
/// conversion, the two ordered multiplies, the final double->float
/// narrowing for float columns) is IEEE correctly rounded on every ISA, so
/// decode bytes never depend on the dispatched tier. tests/test_kernels.cc
/// sweeps all widths x tiers against the scalar reference to keep that
/// claim checked.
///
/// Overriding: set ALP_FORCE_KERNEL=scalar|avx2|avx512|neon|auto in the
/// environment (unsupported values warn on stderr and fall back), or pass
/// --kernel= to the CLI (unsupported values are a hard error), or call
/// ForceTier() programmatically.

namespace alp::kernels {

/// Kernel implementation tiers, in ascending preference order per
/// architecture (BestTier picks the highest available one).
enum class Tier : uint8_t { kScalar = 0, kNeon = 1, kAvx2 = 2, kAvx512 = 3 };

inline constexpr unsigned kTierCount = 4;

/// Lower-case tier name: "scalar", "neon", "avx2", "avx512".
const char* TierName(Tier tier);

/// Parses a tier name (as printed by TierName). Returns false on unknown
/// names; "auto" is not a tier (see ForceTierByName).
bool ParseTier(std::string_view name, Tier* out);

/// One tier's kernel set. All kernels operate on a full 1024-value block
/// and are safe for any `out` alignment (each picks aligned stores at
/// runtime when the destination allows it, e.g. util/aligned_buffer.h
/// allocations or alignas(64) stack buffers).
struct DecodeKernels {
  Tier tier;

  /// Fused unFFOR + int->double + e/f multiply (doubles / floats).
  void (*alp_fused64)(const uint64_t* packed, uint64_t base, unsigned width,
                      double f10_f, double if10_e, double* out);
  void (*alp_fused32)(const uint32_t* packed, uint32_t base, unsigned width,
                      double f10_f, double if10_e, float* out);

  /// Exception patching: out[positions[i]] = bit_cast<T>(exc_bits[i]),
  /// later entries winning on duplicate positions.
  void (*patch64)(double* out, const uint64_t* exc_bits,
                  const uint16_t* positions, unsigned count);
  void (*patch32)(float* out, const uint32_t* exc_bits,
                  const uint16_t* positions, unsigned count);

  /// ALP_rd fused unpack-left || unpack-right || OR. `dict_shifted` holds
  /// the 8 dictionary entries pre-shifted left by right_bits (see
  /// RdDictShifted in alp/rd.h).
  void (*rd_fused64)(const uint64_t* packed_right, const uint64_t* packed_codes,
                     unsigned right_bits, unsigned dict_width,
                     const uint64_t* dict_shifted, double* out);
  void (*rd_fused32)(const uint32_t* packed_right, const uint32_t* packed_codes,
                     unsigned right_bits, unsigned dict_width,
                     const uint32_t* dict_shifted, float* out);

  /// ALP_rd glue over already-unpacked codes/right arrays (1024 each):
  /// out[i] = bit_cast<T>(dict_shifted[codes[i]] | right_parts[i]).
  void (*rd_glue64)(const uint16_t* codes, const uint64_t* right_parts,
                    const uint64_t* dict_shifted, double* out);
  void (*rd_glue32)(const uint16_t* codes, const uint32_t* right_parts,
                    const uint32_t* dict_shifted, float* out);

  /// Compressed-domain range filter over FFOR-packed 64-bit lanes (double
  /// columns): unpacks `packed` (width bits/lane) into `lanes` (1024
  /// entries, 64-byte aligned scratch owned by the caller so a following
  /// gather never re-unpacks) and writes a 1024-bit selection bitmap
  /// (16 words, little-endian bit order: bit i of word i/64 is lane i),
  /// bit set iff t_lo <= lanes[i] <= t_hi as *unsigned* deltas. The caller
  /// translates the double predicate into [t_lo, t_hi] (alp/predicate.h)
  /// and fixes up exception positions / tail lanes on the bitmap itself.
  void (*cmp_range64)(const uint64_t* packed, unsigned width, uint64_t t_lo,
                      uint64_t t_hi, uint64_t* lanes, uint64_t* bitmap);

  /// Late materialization: decodes only the selected lanes,
  /// out[k] = (double)(int64)(lanes[i] + base) * f10_f * if10_e for each
  /// set bit i in ascending order, returning the survivor count. Ascending
  /// order is a hard contract: the engine's filtered aggregates must add
  /// survivors in index order to stay bit-identical to the decode-then-
  /// filter oracle.
  unsigned (*gather64)(const uint64_t* lanes, uint64_t base, double f10_f,
                       double if10_e, const uint64_t* bitmap, double* out);

  /// Range selection over decoded doubles: writes the 16-word bitmap with
  /// bit i set iff i < n and values[i] satisfies the range exactly as
  /// Predicate::Matches does (`>` / `<` for an open bound, `>=` / `<=` for
  /// a closed one; ordered compares, so a NaN value or a NaN bound never
  /// matches and -0.0 == +0.0). Bits at and beyond n are cleared, and no
  /// value at or beyond n is read.
  void (*select_f64)(const double* values, unsigned n, double lo, double hi,
                     bool lo_open, bool hi_open, uint64_t* bitmap);

  /// Survivor compaction: copies values[i] for each set bit i < n of
  /// `bitmap` to out[0..count) in ascending index order and returns count.
  /// Bits at and beyond n are ignored. `out` needs room for n values and
  /// may equal `values` (in-place compaction); entries of `out` past count
  /// are left unspecified.
  unsigned (*compact64)(const double* values, unsigned n,
                        const uint64_t* bitmap, double* out);
};

/// Whether the running CPU can execute \p tier (hardware probe only).
bool CpuSupportsTier(Tier tier);

/// Whether this binary carries \p tier's code (per-file target flags can
/// be absent, e.g. the NEON TU on an x86 build).
bool TierCompiledIn(Tier tier);

/// CpuSupportsTier && TierCompiledIn.
bool TierAvailable(Tier tier);

/// The best tier available on this host (falls back to kScalar).
Tier BestTier();

/// \p tier's kernel set, or nullptr unless TierAvailable(tier). Lets
/// benchmarks and tests drive a specific tier without touching the global
/// selection.
const DecodeKernels* TierKernels(Tier tier);

/// The globally selected kernel set. Resolved once on first call: the
/// ALP_FORCE_KERNEL environment variable if set (unsupported or unknown
/// values warn on stderr and fall back), otherwise BestTier().
const DecodeKernels& Active();

/// Tier of Active().
Tier ActiveTier();

/// TierName(ActiveTier()).
const char* ActiveTierName();

/// Overrides the global selection. Returns false (and changes nothing)
/// unless TierAvailable(tier).
bool ForceTier(Tier tier);

/// ForceTier by name; "auto" re-probes and selects BestTier(). Returns
/// false on unknown names and unavailable tiers.
bool ForceTierByName(std::string_view name);

/// Clears any override so the next Active() re-reads ALP_FORCE_KERNEL /
/// re-probes. For tests.
void ResetForTesting();

// ---------------------------------------------------------------------------
// Typed convenience wrappers over Active() for the templated decode paths.
// ---------------------------------------------------------------------------

template <typename T>
inline void DecodeAlpFused(const typename AlpTraits<T>::Uint* packed,
                           const fastlanes::FforParams& ffor, Combination c,
                           T* out) {
  // The e/f multiplier tables are always the double-precision ones, also
  // for float columns (matches DecodeVectorFused in alp/encoder.h).
  const double f10_f = AlpTraits<double>::kF10[c.f];
  const double if10_e = AlpTraits<double>::kIF10[c.e];
  if constexpr (sizeof(T) == 8) {
    Active().alp_fused64(packed, ffor.base, ffor.width, f10_f, if10_e, out);
  } else {
    Active().alp_fused32(packed, static_cast<uint32_t>(ffor.base), ffor.width,
                         f10_f, if10_e, out);
  }
}

template <typename T>
inline void PatchExceptionBits(T* out, const typename AlpTraits<T>::Uint* exc_bits,
                               const uint16_t* positions, unsigned count) {
  if constexpr (sizeof(T) == 8) {
    Active().patch64(out, exc_bits, positions, count);
  } else {
    Active().patch32(out, exc_bits, positions, count);
  }
}

template <typename T>
inline void RdDecodeFused(const typename AlpTraits<T>::Uint* packed_right,
                          const typename AlpTraits<T>::Uint* packed_codes,
                          unsigned right_bits, unsigned dict_width,
                          const typename AlpTraits<T>::Uint* dict_shifted,
                          T* out) {
  if constexpr (sizeof(T) == 8) {
    Active().rd_fused64(packed_right, packed_codes, right_bits, dict_width,
                        dict_shifted, out);
  } else {
    Active().rd_fused32(packed_right, packed_codes, right_bits, dict_width,
                        dict_shifted, out);
  }
}

template <typename T>
inline void RdGlue(const uint16_t* codes,
                   const typename AlpTraits<T>::Uint* right_parts,
                   const typename AlpTraits<T>::Uint* dict_shifted, T* out) {
  if constexpr (sizeof(T) == 8) {
    Active().rd_glue64(codes, right_parts, dict_shifted, out);
  } else {
    Active().rd_glue32(codes, right_parts, dict_shifted, out);
  }
}

}  // namespace alp::kernels

#endif  // ALP_ALP_KERNEL_DISPATCH_H_
