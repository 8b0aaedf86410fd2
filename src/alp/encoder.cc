#include "alp/encoder.h"

#include <algorithm>
#include <bit>

#include "alp/kernel_dispatch.h"
#include "obs/trace.h"
#include "util/bits.h"

namespace alp {
namespace {

/// ALP_dec for one value (Formula 2). The two multiplications must stay
/// separate (in this order) to reproduce the exact rounding the encoder
/// verified against.
template <typename T>
inline T AlpDec(typename AlpTraits<T>::Int d, double f10_f, double if10_e) {
  return static_cast<T>(static_cast<double>(d) * f10_f * if10_e);
}

}  // namespace

template <typename T>
void EncodeVector(const T* in, unsigned n, Combination c, EncodedVector<T>* out) {
  using Traits = AlpTraits<T>;
  using Int = typename Traits::Int;
  using Uint = typename Traits::Uint;
  out->combination = c;

  // One dispatched pass: ALP_enc, the bitwise verify re-decode (so NaNs,
  // infinities and -0.0 are never silently altered), the exception bitmap
  // and the FOR frame over the valid integers.
  uint64_t exc_bitmap[kVectorSize / 64];
  Int frame[2];
  const unsigned exc_count =
      kernels::AlpEncode(in, n, c, out->encoded, exc_bitmap, frame);

  // Exception positions, ascending, from the bitmap.
  unsigned k = 0;
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    for (uint64_t bits = exc_bitmap[w]; bits != 0; bits &= bits - 1) {
      out->exc_positions[k++] =
          static_cast<uint16_t>(w * 64 + static_cast<unsigned>(std::countr_zero(bits)));
    }
  }

  // First successfully encoded value (the first clear bit below n); fall
  // back to 0 when the entire vector is exceptional.
  Int first_encoded = 0;
  if (exc_count < n) {
    unsigned w = 0;
    while (exc_bitmap[w] == ~uint64_t{0}) ++w;
    first_encoded = out->encoded[w * 64 + static_cast<unsigned>(std::countr_one(exc_bitmap[w]))];
  }

  // Fetch exceptions and patch their slots so they never widen the frame.
  for (unsigned i = 0; i < exc_count; ++i) {
    const uint16_t pos = out->exc_positions[i];
    out->exceptions[i] = in[pos];
    out->encoded[pos] = first_encoded;
  }
  out->exc_count = static_cast<uint16_t>(exc_count);

  // Pad a partial tail so it packs as a full block without widening FFOR.
  for (unsigned i = n; i < kVectorSize; ++i) out->encoded[i] = first_encoded;

  // The frame: all-exception vectors collapse to {first_encoded} = {0}.
  const Int min = exc_count >= n ? first_encoded : frame[0];
  const Int max = exc_count >= n ? first_encoded : frame[1];
  out->ffor.base = static_cast<uint64_t>(static_cast<Uint>(min));
  out->ffor.width = BitWidth(static_cast<Uint>(static_cast<Uint>(max) - static_cast<Uint>(min)));

  ALP_OBS_ONLY({
    // Table 2's exceptions/vector as a live distribution.
    static obs::Histogram& exceptions =
        obs::MetricRegistry::Global().GetHistogram(
            "encode.exceptions_per_vector",
            {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, "exceptions");
    exceptions.Record(exc_count);
  });
}

template <typename T>
void DecodeVector(const typename AlpTraits<T>::Int* encoded, Combination c, T* out) {
  const double f10_f = AlpTraits<double>::kF10[c.f];
  const double if10_e = AlpTraits<double>::kIF10[c.e];
  for (unsigned i = 0; i < kVectorSize; ++i) {
    out[i] = AlpDec<T>(encoded[i], f10_f, if10_e);
  }
}

template <typename T>
void DecodeVectorFused(const typename AlpTraits<T>::Uint* packed,
                       const fastlanes::FforParams& ffor, Combination c, T* out) {
  using Traits = AlpTraits<T>;
  using Int = typename Traits::Int;
  using Uint = typename Traits::Uint;
  const double f10_f = AlpTraits<double>::kF10[c.f];
  const double if10_e = AlpTraits<double>::kIF10[c.e];
  const Uint base = static_cast<Uint>(ffor.base);

  // One fused kernel: unpack, add the FOR base and apply ALP_dec per value
  // without materializing the intermediate integer vector.
  auto dispatch = [&]<unsigned... W>(std::integer_sequence<unsigned, W...>) {
    using Fn = void (*)(const Uint*, Uint, double, double, T*);
    static constexpr Fn kTable[] = {+[](const Uint* p, Uint b, double ff, double ife,
                                        T* o) {
      fastlanes::detail::UnpackBlockImpl<Uint, W>(p, [&](unsigned i, Uint v) {
        o[i] = static_cast<T>(static_cast<double>(static_cast<Int>(v + b)) * ff * ife);
      });
    }...};
    kTable[ffor.width](packed, base, f10_f, if10_e, out);
  };
  if constexpr (sizeof(T) == 8) {
    dispatch(std::make_integer_sequence<unsigned, 65>{});
  } else {
    dispatch(std::make_integer_sequence<unsigned, 33>{});
  }
}

void DecodeVectorUnfused(const uint64_t* packed, const fastlanes::FforParams& ffor,
                         Combination c, int64_t* scratch, double* out) {
  uint64_t tmp[kVectorSize];
  fastlanes::FforDecodeUnfused(packed, scratch, tmp, ffor);
  DecodeVector<double>(scratch, c, out);
}

template <typename T>
void PatchExceptions(T* out, const T* exceptions, const uint16_t* positions,
                     unsigned count) {
  // Route through the dispatched patch kernel (scatter stores on AVX-512).
  // The kernel consumes the storage-format bit patterns, so view the raw
  // values through BitsOf first.
  using Uint = typename AlpTraits<T>::Uint;
  alignas(64) Uint bits[kVectorSize];
  for (unsigned i = 0; i < count; ++i) bits[i] = BitsOf(exceptions[i]);
  kernels::PatchExceptionBits<T>(out, bits, positions, count);
}

template <typename T>
uint64_t EstimateCompressedBits(const T* in, unsigned n, Combination c,
                                unsigned* exc_count_out, uint64_t abort_above) {
  using Traits = AlpTraits<T>;
  using Int = typename Traits::Int;
  using Uint = typename Traits::Uint;

  // Exceptions alone disqualify a combination once they cost more than the
  // best candidate seen so far.
  const unsigned abort_exceptions =
      abort_above == UINT64_MAX
          ? n + 1
          : static_cast<unsigned>(
                std::min<uint64_t>(abort_above / Traits::kExceptionBits + 1, n + 1));

  Int frame[2];
  const unsigned exc_count = kernels::AlpEstimate(in, n, c, abort_exceptions, frame);
  if (exc_count >= abort_exceptions) {
    // The kernel may count past the abort point; report where it lies.
    if (exc_count_out != nullptr) *exc_count_out = abort_exceptions;
    return UINT64_MAX;
  }
  const unsigned width =
      exc_count < n
          ? BitWidth(static_cast<Uint>(static_cast<Uint>(frame[1]) - static_cast<Uint>(frame[0])))
          : 0;
  if (exc_count_out != nullptr) *exc_count_out = exc_count;
  return static_cast<uint64_t>(n) * width +
         static_cast<uint64_t>(exc_count) * Traits::kExceptionBits;
}

// Explicit instantiations for the two supported value types.
template void EncodeVector<double>(const double*, unsigned, Combination,
                                   EncodedVector<double>*);
template void EncodeVector<float>(const float*, unsigned, Combination,
                                  EncodedVector<float>*);
template void DecodeVector<double>(const int64_t*, Combination, double*);
template void DecodeVector<float>(const int32_t*, Combination, float*);
template void DecodeVectorFused<double>(const uint64_t*, const fastlanes::FforParams&,
                                        Combination, double*);
template void DecodeVectorFused<float>(const uint32_t*, const fastlanes::FforParams&,
                                       Combination, float*);
template void PatchExceptions<double>(double*, const double*, const uint16_t*, unsigned);
template void PatchExceptions<float>(float*, const float*, const uint16_t*, unsigned);
template uint64_t EstimateCompressedBits<double>(const double*, unsigned, Combination,
                                                 unsigned*, uint64_t);
template uint64_t EstimateCompressedBits<float>(const float*, unsigned, Combination,
                                                unsigned*, uint64_t);

}  // namespace alp
