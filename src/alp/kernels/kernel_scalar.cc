// The scalar dispatch tier: portable C++ compiled with the build's base
// target flags (the compiler may auto-vectorize it for the baseline ISA,
// e.g. SSE2 on x86-64). Always available; every SIMD tier is tested
// bit-exact against it. Unlike the .inc-based tiers this one fuses the
// unpack emit with the arithmetic directly — the same single-pass shape as
// DecodeVectorFused in alp/encoder.cc, whose output bytes it must (and
// does) reproduce exactly.

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "alp/kernels/kernel_tiers.h"
#include "fastlanes/bitpack.h"

namespace alp::kernels {
namespace {

template <typename T, typename U, unsigned W>
void AlpFusedImpl(const U* packed, U base, double f10_f, double if10_e, T* out) {
  using Int = std::make_signed_t<U>;
  fastlanes::detail::UnpackBlockImpl<U, W>(packed, [&](unsigned i, U v) {
    out[i] = static_cast<T>(
        static_cast<double>(static_cast<Int>(v + base)) * f10_f * if10_e);
  });
}

template <typename T, typename U, unsigned... W>
constexpr auto MakeAlpTable(std::integer_sequence<unsigned, W...>) {
  using Fn = void (*)(const U*, U, double, double, T*);
  return std::array<Fn, sizeof...(W)>{&AlpFusedImpl<T, U, W>...};
}

constexpr auto kAlp64 =
    MakeAlpTable<double, uint64_t>(std::make_integer_sequence<unsigned, 65>{});
constexpr auto kAlp32 =
    MakeAlpTable<float, uint32_t>(std::make_integer_sequence<unsigned, 33>{});

void AlpFused64(const uint64_t* packed, uint64_t base, unsigned width,
                double f10_f, double if10_e, double* out) {
  kAlp64[width](packed, base, f10_f, if10_e, out);
}

void AlpFused32(const uint32_t* packed, uint32_t base, unsigned width,
                double f10_f, double if10_e, float* out) {
  kAlp32[width](packed, base, f10_f, if10_e, out);
}

void Patch64(double* out, const uint64_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<double>(bits[i]);
}

void Patch32(float* out, const uint32_t* bits, const uint16_t* pos,
             unsigned count) {
  for (unsigned i = 0; i < count; ++i) out[pos[i]] = std::bit_cast<float>(bits[i]);
}

// ALP_rd: unpack right parts and codes into scratch, then a branch-free
// glue loop over the pre-shifted dictionary.
template <typename T, typename U, unsigned W>
void UnpackImpl(const U* __restrict packed, U* __restrict out) {
  fastlanes::detail::UnpackBlockImpl<U, W>(packed,
                                           [out](unsigned i, U v) { out[i] = v; });
}

template <typename T, typename U, unsigned... W>
constexpr auto MakeUnpackTable(std::integer_sequence<unsigned, W...>) {
  using Fn = void (*)(const U* __restrict, U* __restrict);
  return std::array<Fn, sizeof...(W)>{&UnpackImpl<T, U, W>...};
}

constexpr auto kUnpack64 = MakeUnpackTable<double, uint64_t>(
    std::make_integer_sequence<unsigned, 65>{});
constexpr auto kUnpack32 = MakeUnpackTable<float, uint32_t>(
    std::make_integer_sequence<unsigned, 33>{});

template <typename T, typename U>
void RdFusedImpl(const U* packed_right, const U* packed_codes,
                 unsigned right_bits, unsigned dict_width,
                 const U* dict_shifted, T* out,
                 const std::array<void (*)(const U* __restrict, U* __restrict),
                                  sizeof(U) * 8 + 1>& unpack) {
  alignas(64) U right[kVectorSize];
  alignas(64) U codes[kVectorSize];
  unpack[right_bits](packed_right, right);
  unpack[dict_width](packed_codes, codes);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<T>(static_cast<U>(dict_shifted[codes[i]] | right[i]));
  }
}

void RdFused64(const uint64_t* packed_right, const uint64_t* packed_codes,
               unsigned right_bits, unsigned dict_width,
               const uint64_t* dict_shifted, double* out) {
  RdFusedImpl(packed_right, packed_codes, right_bits, dict_width, dict_shifted,
              out, kUnpack64);
}

void RdFused32(const uint32_t* packed_right, const uint32_t* packed_codes,
               unsigned right_bits, unsigned dict_width,
               const uint32_t* dict_shifted, float* out) {
  RdFusedImpl(packed_right, packed_codes, right_bits, dict_width, dict_shifted,
              out, kUnpack32);
}

void RdGlue64(const uint16_t* codes, const uint64_t* right_parts,
              const uint64_t* dict_shifted, double* out) {
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<double>(dict_shifted[codes[i]] | right_parts[i]);
  }
}

void RdGlue32(const uint16_t* codes, const uint32_t* right_parts,
              const uint32_t* dict_shifted, float* out) {
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = std::bit_cast<float>(dict_shifted[codes[i]] | right_parts[i]);
  }
}

// Compressed-domain range filter: unpack into the caller's lane scratch,
// then a branchless unsigned range test per 64-lane bitmap word. This loop
// is the portable reference the SIMD tiers' CmpMask64 hooks are tested
// against (bitmaps, unlike doubles, must match bit-for-bit trivially).
void CmpRange64(const uint64_t* packed, unsigned width, uint64_t t_lo,
                uint64_t t_hi, uint64_t* lanes, uint64_t* bitmap) {
  kUnpack64[width](packed, lanes);
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = 0;
    for (unsigned b = 0; b < 64; ++b) {
      const uint64_t v = lanes[w * 64 + b];
      bits |= static_cast<uint64_t>(v >= t_lo && v <= t_hi) << b;
    }
    bitmap[w] = bits;
  }
}

// Late materialization of bitmap survivors, in ascending lane order (the
// engine's bit-identity contract; see kernel_dispatch.h).
unsigned Gather64(const uint64_t* lanes, uint64_t base, double f10_f,
                  double if10_e, const uint64_t* bitmap, double* out) {
  unsigned k = 0;
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    uint64_t bits = bitmap[w];
    while (bits != 0) {
      const unsigned i = w * 64 + static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      out[k++] = static_cast<double>(static_cast<int64_t>(lanes[i] + base)) *
                 f10_f * if10_e;
    }
  }
  return k;
}

// Double range selection, one branch-free 64-value bitmap word at a time;
// the reference the SIMD tiers' select kernels are tested against.
template <bool LoOpen, bool HiOpen>
void SelectF64Impl(const double* values, unsigned n, double lo, double hi,
                   uint64_t* bitmap) {
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    const unsigned begin = w * 64;
    const unsigned end = n < begin + 64 ? n : begin + 64;
    uint64_t bits = 0;
    for (unsigned i = begin; i < end; ++i) {
      const double v = values[i];
      // `&`, not `&&`: both compares always run, so no branch on the data.
      const bool in = (LoOpen ? v > lo : v >= lo) & (HiOpen ? v < hi : v <= hi);
      bits |= static_cast<uint64_t>(in) << (i - begin);
    }
    bitmap[w] = bits;
  }
}

void SelectF64(const double* values, unsigned n, double lo, double hi,
               bool lo_open, bool hi_open, uint64_t* bitmap) {
  if (lo_open) {
    hi_open ? SelectF64Impl<true, true>(values, n, lo, hi, bitmap)
            : SelectF64Impl<true, false>(values, n, lo, hi, bitmap);
  } else {
    hi_open ? SelectF64Impl<false, true>(values, n, lo, hi, bitmap)
            : SelectF64Impl<false, false>(values, n, lo, hi, bitmap);
  }
}

// Branch-free store-and-advance: every value is written to out[k] and k
// advances only past survivors, so the loop has no data-dependent branch.
// k <= i throughout, which is what makes in-place compaction safe.
unsigned Compact64(const double* values, unsigned n, const uint64_t* bitmap,
                   double* out) {
  unsigned k = 0;
  for (unsigned begin = 0; begin < n; begin += 64) {
    uint64_t bits = bitmap[begin / 64];
    const unsigned end = n < begin + 64 ? n : begin + 64;
    for (unsigned i = begin; i < end; ++i, bits >>= 1) {
      out[k] = values[i];
      k += static_cast<unsigned>(bits & 1u);
    }
  }
  return k;
}

constexpr DecodeKernels kKernels = {
    Tier::kScalar, AlpFused64, AlpFused32, Patch64,    Patch32,
    RdFused64,     RdFused32,  RdGlue64,   RdGlue32,   CmpRange64,
    Gather64,      SelectF64,  Compact64,
};

}  // namespace

const DecodeKernels* GetScalarKernels() { return &kKernels; }

}  // namespace alp::kernels
