// Kernel-dispatch equivalence suite: every compiled-in + CPU-supported
// decode tier (scalar / avx2 / avx512 / neon, see alp/kernel_dispatch.h)
// must produce bit-identical output to the scalar reference for
//
//   - the fused unFFOR + ALP_dec kernel at every FFOR width (0..64 for
//     doubles, 0..32 for floats) and across FOR bases, including bases
//     that push the signed integers past 2^52 (stresses the AVX2 exact
//     int64->double conversion),
//   - the ALP_rd fused unpack-left || unpack-right || OR kernel over the
//     full (right_bits x dict_width) grid,
//   - the exception patch kernel, including duplicate positions
//     (later-entry-wins, matching the scalar loop), and
//   - full column decodes of the committed golden files under every
//     forced tier,
//   - the encode-side kernels (ALP_enc + verify + frame, the sampler's
//     estimate, the ALP_rd split and dictionary probe, the zone map's
//     min/max) at every tail length, on specials (NaN payloads, +-inf,
//     +-0.0 in both orders, subnormals, the +-2^51 fast-rounding edge) and
//     on vectors with no and with only exceptions, and
//   - re-encodes of the golden values under every forced tier, serial and
//     parallel, byte for byte against the committed files.
//
// Plus the original Figure-4 flavour checks (auto-vectorized vs
// forced-scalar vs dispatched SIMD) and dispatcher unit tests.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "alp/alp.h"
#include "alp/decode_kernels.h"
#include "alp/predicate.h"
#include "fastlanes/bitpack.h"
#include "util/bits.h"
#include "util/file_io.h"
#include "util/thread_pool.h"

#ifndef ALP_GOLDEN_DIR
#error "ALP_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace alp {
namespace {

using kernels::KernelTable;
using kernels::Tier;

/// Restores the dispatcher's automatic selection when a test that forces
/// tiers exits (also on failure paths).
struct TierGuard {
  TierGuard() = default;
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  ~TierGuard() { kernels::ResetForTesting(); }
};

std::vector<const KernelTable*> AvailableTiers() {
  std::vector<const KernelTable*> tiers;
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    if (const KernelTable* k = kernels::TierKernels(static_cast<Tier>(t))) {
      tiers.push_back(k);
    }
  }
  return tiers;
}

const KernelTable& ScalarKernels() {
  const KernelTable* k = kernels::TierKernels(Tier::kScalar);
  EXPECT_NE(k, nullptr);
  return *k;
}

// ---------------------------------------------------------------------------
// Dispatcher unit tests.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, TierNamesRoundTrip) {
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    Tier parsed;
    ASSERT_TRUE(kernels::ParseTier(kernels::TierName(tier), &parsed))
        << kernels::TierName(tier);
    EXPECT_EQ(parsed, tier);
  }
  Tier ignored;
  EXPECT_FALSE(kernels::ParseTier("auto", &ignored));  // Not a tier.
  EXPECT_FALSE(kernels::ParseTier("", &ignored));
  EXPECT_FALSE(kernels::ParseTier("AVX2", &ignored));  // Names are lower-case.
  EXPECT_FALSE(kernels::ParseTier("sse", &ignored));
}

TEST(KernelDispatch, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(kernels::TierCompiledIn(Tier::kScalar));
  EXPECT_TRUE(kernels::CpuSupportsTier(Tier::kScalar));
  EXPECT_TRUE(kernels::TierAvailable(Tier::kScalar));
  const KernelTable* k = kernels::TierKernels(Tier::kScalar);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->tier, Tier::kScalar);
  // Every tier object reports the tier it was asked for.
  for (const KernelTable* tk : AvailableTiers()) {
    EXPECT_EQ(kernels::TierKernels(tk->tier), tk);
  }
  // The dispatcher always lands on an available tier.
  EXPECT_TRUE(kernels::TierAvailable(kernels::BestTier()));
  EXPECT_TRUE(kernels::TierAvailable(kernels::ActiveTier()));
}

TEST(KernelDispatch, UnavailableTiersHaveNoKernels) {
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (!kernels::TierAvailable(tier)) {
      EXPECT_EQ(kernels::TierKernels(tier), nullptr) << kernels::TierName(tier);
    }
  }
}

TEST(KernelDispatch, ForceTierSemantics) {
  TierGuard guard;
  ASSERT_TRUE(kernels::ForceTier(Tier::kScalar));
  EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);
  EXPECT_STREQ(kernels::ActiveTierName(), "scalar");

  // Forcing an unavailable tier fails and leaves the selection untouched.
  for (unsigned t = 0; t < kernels::kTierCount; ++t) {
    const Tier tier = static_cast<Tier>(t);
    if (kernels::TierAvailable(tier)) continue;
    EXPECT_FALSE(kernels::ForceTier(tier)) << kernels::TierName(tier);
    EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);
  }

  // By-name forcing: every available tier works, unknown names fail.
  for (const KernelTable* k : AvailableTiers()) {
    EXPECT_TRUE(kernels::ForceTierByName(kernels::TierName(k->tier)));
    EXPECT_EQ(kernels::ActiveTier(), k->tier);
  }
  EXPECT_FALSE(kernels::ForceTierByName("warp9"));

  // "auto" re-probes and selects the best tier for this host.
  EXPECT_TRUE(kernels::ForceTierByName("auto"));
  EXPECT_EQ(kernels::ActiveTier(), kernels::BestTier());
}

// ---------------------------------------------------------------------------
// Fused ALP decode: every tier vs the scalar reference, all widths.
// ---------------------------------------------------------------------------

/// FOR bases swept per width: zero, a value-sized one, and one that drives
/// v + base past 2^52 (and into the sign bit) so the int64->double
/// conversion leaves the exactly-representable range.
constexpr uint64_t kBases64[] = {0, 0x1234, 0x7FF0'1234'5678'9ABCull,
                                 0xFFFF'FFFF'FFFF'0123ull};
constexpr uint32_t kBases32[] = {0, 0x1234, 0x7FF0'1234u, 0xFFFF'0123u};

class FusedWidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedWidthTest, AllTiersMatchScalarDouble) {
  const unsigned width = GetParam();
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(width * 977 + 11);

  alignas(64) uint64_t deltas[kVectorSize];
  alignas(64) uint64_t packed[kVectorSize];
  for (auto& d : deltas) d = rng() & LowMask64(width);
  if (width > 0) deltas[7] = LowMask64(width);  // Exercise the top bit.
  fastlanes::Pack(deltas, packed, width);

  const Combination combos[] = {{14, 12}, {0, 0}, {10, 10}};
  for (const Combination c : combos) {
    const double f10_f = AlpTraits<double>::kF10[c.f];
    const double if10_e = AlpTraits<double>::kIF10[c.e];
    for (const uint64_t base : kBases64) {
      alignas(64) double ref[kVectorSize];
      ScalarKernels().alp_fused64(packed, base, width, f10_f, if10_e, ref);
      for (const KernelTable* k : tiers) {
        alignas(64) double out[kVectorSize];
        k->alp_fused64(packed, base, width, f10_f, if10_e, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " width " << width << " base "
              << base << " i " << i;
        }
        // Unaligned destinations must decode identically too.
        alignas(64) double slack[kVectorSize + 2];
        k->alp_fused64(packed, base, width, f10_f, if10_e, slack + 1);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(slack[i + 1]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " unaligned width " << width;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, FusedWidthTest, ::testing::Range(0u, 65u));

class FusedWidthTest32 : public ::testing::TestWithParam<unsigned> {};

TEST_P(FusedWidthTest32, AllTiersMatchScalarFloat) {
  const unsigned width = GetParam();
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(width * 131 + 3);

  alignas(64) uint32_t deltas[kVectorSize];
  alignas(64) uint32_t packed[kVectorSize];
  for (auto& d : deltas) d = static_cast<uint32_t>(rng()) & LowMask32(width);
  if (width > 0) deltas[7] = LowMask32(width);
  fastlanes::Pack(deltas, packed, width);

  const Combination combos[] = {{9, 6}, {0, 0}};
  for (const Combination c : combos) {
    const double f10_f = AlpTraits<double>::kF10[c.f];
    const double if10_e = AlpTraits<double>::kIF10[c.e];
    for (const uint32_t base : kBases32) {
      alignas(64) float ref[kVectorSize];
      ScalarKernels().alp_fused32(packed, base, width, f10_f, if10_e, ref);
      for (const KernelTable* k : tiers) {
        alignas(64) float out[kVectorSize];
        k->alp_fused32(packed, base, width, f10_f, if10_e, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " width " << width << " base "
              << base << " i " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, FusedWidthTest32,
                         ::testing::Range(0u, 33u));

// ---------------------------------------------------------------------------
// ALP_rd fused + glue kernels: every tier vs the scalar reference.
// ---------------------------------------------------------------------------

TEST(KernelTiers, RdFusedMatchesScalarDouble) {
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(42);
  for (unsigned right_bits = 48; right_bits < 64; ++right_bits) {
    for (unsigned dict_width = 0; dict_width <= kRdMaxDictWidth; ++dict_width) {
      const unsigned dict_size = 1u << dict_width;
      alignas(64) uint64_t dict_shifted[kRdMaxDictSize] = {};
      for (unsigned k = 0; k < dict_size; ++k) {
        dict_shifted[k] = (rng() & LowMask64(64 - right_bits)) << right_bits;
      }
      alignas(64) uint64_t right[kVectorSize], codes[kVectorSize];
      alignas(64) uint64_t packed_right[kVectorSize], packed_codes[kVectorSize];
      for (auto& r : right) r = rng() & LowMask64(right_bits);
      for (auto& cd : codes) cd = rng() % dict_size;
      fastlanes::Pack(right, packed_right, right_bits);
      fastlanes::Pack(codes, packed_codes, dict_width);

      alignas(64) double ref[kVectorSize];
      ScalarKernels().rd_fused64(packed_right, packed_codes, right_bits,
                                 dict_width, dict_shifted, ref);
      // The reference itself must be the glued bit patterns.
      for (unsigned i = 0; i < kVectorSize; ++i) {
        ASSERT_EQ(BitsOf(ref[i]), dict_shifted[codes[i]] | right[i]) << i;
      }
      for (const KernelTable* k : tiers) {
        alignas(64) double out[kVectorSize];
        k->rd_fused64(packed_right, packed_codes, right_bits, dict_width,
                      dict_shifted, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " rb " << right_bits << " dw "
              << dict_width << " i " << i;
        }
      }
    }
  }
}

TEST(KernelTiers, RdFusedMatchesScalarFloat) {
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(43);
  for (unsigned right_bits = 16; right_bits < 32; ++right_bits) {
    for (unsigned dict_width = 0; dict_width <= kRdMaxDictWidth; ++dict_width) {
      const unsigned dict_size = 1u << dict_width;
      alignas(64) uint32_t dict_shifted[kRdMaxDictSize] = {};
      for (unsigned k = 0; k < dict_size; ++k) {
        dict_shifted[k] = (static_cast<uint32_t>(rng()) &
                           LowMask32(32 - right_bits))
                          << right_bits;
      }
      alignas(64) uint32_t right[kVectorSize], codes[kVectorSize];
      alignas(64) uint32_t packed_right[kVectorSize], packed_codes[kVectorSize];
      for (auto& r : right) r = static_cast<uint32_t>(rng()) & LowMask32(right_bits);
      for (auto& cd : codes) cd = static_cast<uint32_t>(rng() % dict_size);
      fastlanes::Pack(right, packed_right, right_bits);
      fastlanes::Pack(codes, packed_codes, dict_width);

      alignas(64) float ref[kVectorSize];
      ScalarKernels().rd_fused32(packed_right, packed_codes, right_bits,
                                 dict_width, dict_shifted, ref);
      for (const KernelTable* k : tiers) {
        alignas(64) float out[kVectorSize];
        k->rd_fused32(packed_right, packed_codes, right_bits, dict_width,
                      dict_shifted, out);
        for (unsigned i = 0; i < kVectorSize; ++i) {
          ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i]))
              << kernels::TierName(k->tier) << " rb " << right_bits << " dw "
              << dict_width << " i " << i;
        }
      }
    }
  }
}

TEST(KernelTiers, RdGlueMatchesScalar) {
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(44);
  const unsigned right_bits = 52;
  alignas(64) uint64_t dict_shifted[kRdMaxDictSize];
  for (auto& d : dict_shifted) d = (rng() & LowMask64(12)) << right_bits;
  uint16_t codes[kVectorSize];
  // Deliberately unaligned right-parts storage (the column decode path
  // hands the kernels a pointer into a packed struct).
  std::vector<uint64_t> right_storage(kVectorSize + 1);
  uint64_t* right = right_storage.data() + 1;
  for (auto& c : codes) c = static_cast<uint16_t>(rng() % kRdMaxDictSize);
  for (unsigned i = 0; i < kVectorSize; ++i) right[i] = rng() & LowMask64(right_bits);

  alignas(64) double ref[kVectorSize];
  ScalarKernels().rd_glue64(codes, right, dict_shifted, ref);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(ref[i]), dict_shifted[codes[i]] | right[i]) << i;
  }
  for (const KernelTable* k : tiers) {
    alignas(64) double out[kVectorSize];
    k->rd_glue64(codes, right, dict_shifted, out);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(ref[i])) << kernels::TierName(k->tier);
    }
  }

  // Float flavour.
  alignas(64) uint32_t dict32[kRdMaxDictSize];
  const unsigned rb32 = 24;
  for (auto& d : dict32) d = (static_cast<uint32_t>(rng()) & LowMask32(8)) << rb32;
  std::vector<uint32_t> right32_storage(kVectorSize + 1);
  uint32_t* right32 = right32_storage.data() + 1;
  for (unsigned i = 0; i < kVectorSize; ++i) {
    right32[i] = static_cast<uint32_t>(rng()) & LowMask32(rb32);
  }
  alignas(64) float ref32[kVectorSize];
  ScalarKernels().rd_glue32(codes, right32, dict32, ref32);
  for (const KernelTable* k : tiers) {
    alignas(64) float out[kVectorSize];
    k->rd_glue32(codes, right32, dict32, out);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(ref32[i])) << kernels::TierName(k->tier);
    }
  }
}

// ---------------------------------------------------------------------------
// Exception patching: every tier, including duplicate positions.
// ---------------------------------------------------------------------------

TEST(KernelTiers, PatchMatchesScalarWithDuplicates) {
  const auto tiers = AvailableTiers();
  std::mt19937_64 rng(45);

  uint16_t positions[kVectorSize];
  alignas(64) uint64_t bits64[kVectorSize];
  alignas(64) uint32_t bits32[kVectorSize];
  const unsigned count = 300;
  for (unsigned i = 0; i < count; ++i) {
    positions[i] = static_cast<uint16_t>(rng() % kVectorSize);
    bits64[i] = rng();
    bits32[i] = static_cast<uint32_t>(rng());
  }
  // Guaranteed duplicates: the last write must win, like the scalar loop.
  positions[10] = positions[20] = positions[30] = 77;
  positions[count - 1] = 77;

  alignas(64) double base64[kVectorSize];
  alignas(64) float base32[kVectorSize];
  for (unsigned i = 0; i < kVectorSize; ++i) {
    base64[i] = static_cast<double>(i) * 0.5;
    base32[i] = static_cast<float>(i) * 0.5f;
  }

  alignas(64) double ref64[kVectorSize];
  std::memcpy(ref64, base64, sizeof(ref64));
  ScalarKernels().patch64(ref64, bits64, positions, count);
  ASSERT_EQ(BitsOf(ref64[77]), bits64[count - 1]);  // Later entry won.

  alignas(64) float ref32[kVectorSize];
  std::memcpy(ref32, base32, sizeof(ref32));
  ScalarKernels().patch32(ref32, bits32, positions, count);
  ASSERT_EQ(BitsOf(ref32[77]), bits32[count - 1]);

  for (const KernelTable* k : tiers) {
    alignas(64) double out64[kVectorSize];
    std::memcpy(out64, base64, sizeof(out64));
    k->patch64(out64, bits64, positions, count);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out64[i]), BitsOf(ref64[i]))
          << kernels::TierName(k->tier) << " i " << i;
    }
    alignas(64) float out32[kVectorSize];
    std::memcpy(out32, base32, sizeof(out32));
    k->patch32(out32, bits32, positions, count);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out32[i]), BitsOf(ref32[i]))
          << kernels::TierName(k->tier) << " i " << i;
    }
    // count == 0 must be a no-op.
    k->patch64(out64, bits64, positions, 0);
    k->patch32(out32, bits32, positions, 0);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      ASSERT_EQ(BitsOf(out64[i]), BitsOf(ref64[i]));
      ASSERT_EQ(BitsOf(out32[i]), BitsOf(ref32[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Full column round-trips under every forced tier: IEEE specials flow
// through the exception path, ALP_rd columns through the glue path.
// ---------------------------------------------------------------------------

template <typename T>
std::vector<T> SpecialsCorpus() {
  std::vector<T> values;
  values.reserve(4 * kVectorSize);
  std::mt19937_64 rng(46);
  for (unsigned i = 0; i < 4 * kVectorSize; ++i) {
    values.push_back(static_cast<T>(static_cast<double>(i % 997) * 0.01));
  }
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(),
                        std::numeric_limits<T>::denorm_min(),
                        -std::numeric_limits<T>::denorm_min(),
                        T(-0.0),
                        std::numeric_limits<T>::max(),
                        std::numeric_limits<T>::lowest()};
  for (unsigned i = 0; i < 256; ++i) {
    values[rng() % values.size()] = specials[i % 8];
  }
  return values;
}

template <typename T>
void RoundTripEveryTier(const std::vector<T>& values) {
  TierGuard guard;
  const auto compressed = CompressColumn(values.data(), values.size());
  for (const KernelTable* k : AvailableTiers()) {
    SCOPED_TRACE(kernels::TierName(k->tier));
    ASSERT_TRUE(kernels::ForceTier(k->tier));
    auto reader = ColumnReader<T>::Open(compressed.data(), compressed.size());
    ASSERT_TRUE(reader.ok());
    std::vector<T> out(values.size());
    ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(BitsOf(out[i]), BitsOf(values[i])) << i;
    }
  }
}

TEST(KernelTiers, SpecialsRoundTripDouble) {
  RoundTripEveryTier(SpecialsCorpus<double>());
}

TEST(KernelTiers, SpecialsRoundTripFloat) {
  RoundTripEveryTier(SpecialsCorpus<float>());
}

TEST(KernelTiers, RdColumnRoundTripEveryTier) {
  // High-entropy mantissas force the ALP_rd scheme (paper Section 3.4).
  std::vector<double> values(4 * kVectorSize);
  std::mt19937_64 rng(47);
  for (auto& v : values) {
    v = std::bit_cast<double>((uint64_t{0x3FF} << 52) | (rng() & LowMask64(52)));
  }
  RoundTripEveryTier(values);
}

// ---------------------------------------------------------------------------
// Golden files: the committed bytes decode identically on every tier.
// ---------------------------------------------------------------------------

TEST(KernelTiers, GoldenFilesDecodeIdenticallyOnEveryTier) {
  TierGuard guard;
  const char* kFiles[] = {"alp_small", "rd_small"};
  for (const char* name : kFiles) {
    SCOPED_TRACE(name);
    const std::string dir = ALP_GOLDEN_DIR;
    const auto column = ReadFileBytes(dir + "/" + name + ".alp");
    ASSERT_TRUE(column.has_value());
    const auto values = ReadDoublesFileEx(dir + "/" + name + ".bin");
    ASSERT_TRUE(values.ok());

    for (const KernelTable* k : AvailableTiers()) {
      SCOPED_TRACE(kernels::TierName(k->tier));
      ASSERT_TRUE(kernels::ForceTier(k->tier));
      auto reader = ColumnReader<double>::Open(column->data(), column->size());
      ASSERT_TRUE(reader.ok());
      ASSERT_EQ(reader->value_count(), values->size());
      std::vector<double> out(values->size());
      ASSERT_TRUE(reader->TryDecodeAll(out.data()).ok());
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(BitsOf(out[i]), BitsOf((*values)[i])) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The original Figure-4 flavour checks (auto-vectorized / forced-scalar /
// dispatched SIMD agree bit-exactly).
// ---------------------------------------------------------------------------

class KernelEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelEquivalenceTest, AllFlavoursAgree) {
  const unsigned precision = GetParam() % 8;
  std::mt19937_64 rng(GetParam() * 31 + 1);
  std::vector<double> in(kVectorSize);
  const double f10 = AlpTraits<double>::kF10[precision];
  for (auto& v : in) {
    v = static_cast<double>(static_cast<int64_t>(rng() % (1ull << (GetParam() + 8)))) / f10;
  }

  const Combination c{static_cast<uint8_t>(14),
                      static_cast<uint8_t>(14 - precision)};
  EncodedVector<double> enc;
  EncodeVector(in.data(), kVectorSize, c, &enc);
  const auto ffor = fastlanes::FforAnalyze(enc.encoded, kVectorSize);
  std::vector<uint64_t> packed(kVectorSize);
  fastlanes::FforEncode(enc.encoded, packed.data(), ffor);

  std::vector<double> autovec(kVectorSize);
  DecodeVectorFused<double>(packed.data(), ffor, c, autovec.data());
  std::vector<double> scalar_out(kVectorSize);
  scalar::DecodeAlpFused(packed.data(), ffor, c, scalar_out.data());
  std::vector<double> simd_out(kVectorSize);
  simd::DecodeAlpFused(packed.data(), ffor, c, simd_out.data());

  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(autovec[i]), BitsOf(scalar_out[i])) << i;
    ASSERT_EQ(BitsOf(autovec[i]), BitsOf(simd_out[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, KernelEquivalenceTest, ::testing::Range(0u, 40u, 3u));

TEST(Kernels, SimdAvailabilityIsReported) {
  // The answer depends on the host; it must agree with the dispatcher.
  EXPECT_EQ(simd::Available(), kernels::ActiveTier() != Tier::kScalar);
  EXPECT_STREQ(simd::KernelName(), kernels::ActiveTierName());
}

// ---------------------------------------------------------------------------
// Decoded-value selection and survivor compaction: every tier against the
// scalar reference (and against Predicate::Matches itself), at every tail
// length. Inputs are heap buffers of exactly n values, so a kernel reading
// or writing past n trips the sanitizer lanes.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Values in [-4, 4] on a coarse grid (so bounds hit values exactly), with
/// NaN, ±inf, ±0.0 and the bound neighbours sprinkled in.
std::vector<double> SelectCorpus(std::mt19937_64& rng) {
  std::vector<double> v(kVectorSize);
  const double specials[] = {kNaN, -kNaN, kInf, -kInf, 0.0, -0.0,
                             std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0),
                             std::numeric_limits<double>::denorm_min()};
  for (auto& x : v) {
    x = rng() % 5 == 0 ? specials[rng() % std::size(specials)]
                       : static_cast<double>(static_cast<int>(rng() % 33) - 16) / 4.0;
  }
  return v;
}

std::vector<Predicate> SelectPredicates() {
  std::vector<Predicate> preds;
  const std::pair<double, double> ranges[] = {
      {-1.0, 1.0}, {0.0, 0.0}, {-0.0, 2.5}, {-kInf, 0.25}, {-2.0, kInf},
      {-kInf, kInf}, {3.0, -3.0}, {kNaN, 1.0}, {-1.0, kNaN}};
  for (const auto& [lo, hi] : ranges) {
    for (unsigned open = 0; open < 4; ++open) {
      preds.push_back(Predicate{lo, hi, (open & 1) != 0, (open & 2) != 0});
    }
  }
  return preds;
}

void ExpectSelectMatches(const KernelTable& k, const std::vector<double>& values,
                         const Predicate& p) {
  const unsigned n = static_cast<unsigned>(values.size());
  uint64_t bitmap[kVectorSize / 64];
  std::memset(bitmap, 0xAB, sizeof(bitmap));  // Stale bits must be cleared.
  k.select_f64(values.data(), n, p.lo, p.hi, p.lo_open, p.hi_open, bitmap);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    const bool bit = (bitmap[i / 64] >> (i % 64)) & 1u;
    const bool want = i < n && p.Matches(values[i]);
    ASSERT_EQ(bit, want) << kernels::TierName(k.tier) << " n=" << n << " i=" << i
                         << " x=" << (i < n ? values[i] : 0.0) << " [" << p.lo
                         << ", " << p.hi << "] open=" << p.lo_open << p.hi_open;
  }
}

TEST(KernelTiers, SelectF64MatchesPredicateEveryTier) {
  std::mt19937_64 rng(71);
  const auto corpus = SelectCorpus(rng);
  for (const KernelTable* k : AvailableTiers()) {
    for (const Predicate& p : SelectPredicates()) ExpectSelectMatches(*k, corpus, p);
  }
}

TEST(KernelTiers, SelectF64EveryTailLength) {
  std::mt19937_64 rng(72);
  const auto corpus = SelectCorpus(rng);
  const Predicate preds[] = {Predicate{-1.0, 1.0, false, true},
                             Predicate{-0.0, 2.0, true, false}};
  for (const KernelTable* k : AvailableTiers()) {
    for (unsigned n = 1; n <= kVectorSize; ++n) {
      const std::vector<double> values(corpus.begin(), corpus.begin() + n);
      for (const Predicate& p : preds) ExpectSelectMatches(*k, values, p);
    }
  }
}

/// Bitmaps of every shape the compaction has a fast or slow path for; bits
/// at and beyond n are set on purpose (the kernel must ignore them).
std::vector<std::vector<uint64_t>> CompactBitmaps(std::mt19937_64& rng) {
  std::vector<std::vector<uint64_t>> maps;
  maps.emplace_back(kVectorSize / 64, 0);
  maps.emplace_back(kVectorSize / 64, ~uint64_t{0});
  maps.emplace_back(kVectorSize / 64, 0x5555555555555555ull);
  maps.emplace_back(kVectorSize / 64, 0xAAAAAAAAAAAAAAAAull);
  for (const unsigned permille : {20u, 500u, 980u}) {
    std::vector<uint64_t> m(kVectorSize / 64, 0);
    for (unsigned i = 0; i < kVectorSize; ++i) {
      if (rng() % 1000 < permille) m[i / 64] |= uint64_t{1} << (i % 64);
    }
    maps.push_back(std::move(m));
  }
  return maps;
}

TEST(KernelTiers, Compact64MatchesScalarEveryTierEveryTail) {
  std::mt19937_64 rng(73);
  std::vector<double> corpus(kVectorSize);
  for (auto& x : corpus) x = std::bit_cast<double>(rng());  // NaN payloads too.
  const auto maps = CompactBitmaps(rng);
  const auto tiers = AvailableTiers();
  for (unsigned n = 1; n <= kVectorSize; ++n) {
    const std::vector<double> values(corpus.begin(), corpus.begin() + n);
    for (const auto& map : maps) {
      std::vector<uint64_t> want;
      for (unsigned i = 0; i < n; ++i) {
        if ((map[i / 64] >> (i % 64)) & 1u) want.push_back(BitsOf(values[i]));
      }
      for (const KernelTable* k : tiers) {
        std::vector<double> out(n);
        const unsigned count = k->compact64(values.data(), n, map.data(), out.data());
        ASSERT_EQ(count, want.size()) << kernels::TierName(k->tier) << " n=" << n;
        for (unsigned i = 0; i < count; ++i) {
          ASSERT_EQ(BitsOf(out[i]), want[i])
              << kernels::TierName(k->tier) << " n=" << n << " i=" << i;
        }
        // In place: the survivor cursor trails the read position.
        std::vector<double> inplace = values;
        ASSERT_EQ(k->compact64(inplace.data(), n, map.data(), inplace.data()), count);
        for (unsigned i = 0; i < count; ++i) {
          ASSERT_EQ(BitsOf(inplace[i]), want[i])
              << kernels::TierName(k->tier) << " in place, n=" << n << " i=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Encode-side kernels: every tier against the scalar reference. Inputs are
// heap buffers of exactly n values, so a kernel reading past n trips the
// sanitizer lanes; outputs are pre-filled with garbage so a kernel that
// forgets to clear a bitmap word shows up.
// ---------------------------------------------------------------------------

/// The fast-rounding edge: scaled values at and around +-2^51, where
/// fast_round stops being exact.
template <typename T>
std::vector<T> RoundingEdge() {
  std::vector<T> edge;
  for (const double base : {0x1p51, 0x1p52, 0x1p50}) {
    for (const double sign : {1.0, -1.0}) {
      const double x = sign * base;
      edge.push_back(static_cast<T>(x));
      edge.push_back(static_cast<T>(std::nextafter(x, 0.0)));
      edge.push_back(static_cast<T>(std::nextafter(x, sign * kInf)));
      edge.push_back(static_cast<T>(x - sign * 0.5));
      edge.push_back(static_cast<T>(x + sign * 1.5));
    }
  }
  return edge;
}

/// 1024 values: decimals at two precisions (so most encode), with NaNs of
/// several payloads and signs, +-inf, +-0.0 in both orders, subnormals and
/// the rounding edge sprinkled in.
template <typename T>
std::vector<T> EncodeCorpus(uint64_t seed) {
  using Uint = typename AlpTraits<T>::Uint;
  std::mt19937_64 rng(seed);
  std::vector<T> specials = {
      std::numeric_limits<T>::quiet_NaN(),
      -std::numeric_limits<T>::quiet_NaN(),
      std::bit_cast<T>(static_cast<Uint>(std::bit_cast<Uint>(std::numeric_limits<T>::quiet_NaN()) | 0x5A5)),
      std::numeric_limits<T>::signaling_NaN(),
      std::numeric_limits<T>::infinity(),
      -std::numeric_limits<T>::infinity(),
      T{0.0},
      T{-0.0},
      std::numeric_limits<T>::denorm_min(),
      -std::numeric_limits<T>::denorm_min(),
      std::numeric_limits<T>::min() / 3,
      std::numeric_limits<T>::max(),
      std::numeric_limits<T>::lowest()};
  for (const T x : RoundingEdge<T>()) specials.push_back(x);
  std::vector<T> v(kVectorSize);
  for (auto& x : v) {
    const unsigned pick = static_cast<unsigned>(rng() % 16);
    if (pick == 0) {
      x = specials[rng() % specials.size()];
    } else {
      const double scale = pick < 8 ? 100.0 : 10000.0;
      x = static_cast<T>(static_cast<double>(static_cast<int64_t>(rng() % 2000001) - 1000000) /
                         scale);
    }
  }
  return v;
}

/// Combinations that make the corpus mostly encode, mostly fail, and reach
/// the rounding edge unscaled.
template <typename T>
std::vector<Combination> EncodeCombinations() {
  const uint8_t top = static_cast<uint8_t>(AlpTraits<T>::kMaxExponent);
  return {Combination{2, 0}, Combination{4, 0}, Combination{0, 0},
          Combination{top, 0}, Combination{top, top}, Combination{5, 3}};
}

template <typename T>
void ExpectEncodeMatchesScalar(const KernelTable& k, const std::vector<T>& values,
                               Combination c) {
  using Int = typename AlpTraits<T>::Int;
  const KernelTable& s = ScalarKernels();
  const unsigned n = static_cast<unsigned>(values.size());
  std::vector<Int> want(kVectorSize, 7), got(kVectorSize, 7);
  uint64_t want_map[kVectorSize / 64], got_map[kVectorSize / 64];
  std::memset(got_map, 0xAB, sizeof(got_map));
  Int want_frame[2], got_frame[2] = {5, 5};
  unsigned want_count, got_count;
  if constexpr (sizeof(T) == 8) {
    want_count = s.alp_encode64(values.data(), n, c, want.data(), want_map, want_frame);
    got_count = k.alp_encode64(values.data(), n, c, got.data(), got_map, got_frame);
  } else {
    want_count = s.alp_encode32(values.data(), n, c, want.data(), want_map, want_frame);
    got_count = k.alp_encode32(values.data(), n, c, got.data(), got_map, got_frame);
  }
  const std::string where = std::string(kernels::TierName(k.tier)) + " n=" +
                            std::to_string(n) + " e=" + std::to_string(c.e) +
                            " f=" + std::to_string(c.f);
  ASSERT_EQ(got_count, want_count) << where;
  ASSERT_EQ(got_frame[0], want_frame[0]) << where;
  ASSERT_EQ(got_frame[1], want_frame[1]) << where;
  unsigned bits = 0;
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    ASSERT_EQ(got_map[w], want_map[w]) << where << " word " << w;
    bits += static_cast<unsigned>(std::popcount(want_map[w]));
  }
  ASSERT_EQ(bits, want_count) << where;
  for (unsigned i = 0; i < n; ++i) ASSERT_EQ(got[i], want[i]) << where << " i=" << i;
  for (unsigned i = n; i < kVectorSize; ++i) ASSERT_EQ(got[i], 7) << where << " wrote " << i;

  // The estimate is the same pass without stores, and may stop early.
  for (const unsigned abort_at : {n + 1, want_count, want_count + 1, 1u, 3u}) {
    if (abort_at == 0) continue;
    Int est_want[2], est_got[2];
    unsigned est_want_count, est_got_count;
    if constexpr (sizeof(T) == 8) {
      est_want_count = s.alp_estimate64(values.data(), n, c, abort_at, est_want);
      est_got_count = k.alp_estimate64(values.data(), n, c, abort_at, est_got);
    } else {
      est_want_count = s.alp_estimate32(values.data(), n, c, abort_at, est_want);
      est_got_count = k.alp_estimate32(values.data(), n, c, abort_at, est_got);
    }
    if (est_want_count >= abort_at) {
      ASSERT_GE(est_got_count, abort_at) << where << " abort_at=" << abort_at;
      continue;
    }
    ASSERT_EQ(est_want_count, want_count) << where;
    ASSERT_EQ(est_got_count, est_want_count) << where << " abort_at=" << abort_at;
    if (est_want_count < n) {
      ASSERT_EQ(est_got[0], want_frame[0]) << where;
      ASSERT_EQ(est_got[1], want_frame[1]) << where;
    }
  }
}

template <typename T>
void EncodeEveryTail(uint64_t seed) {
  const auto corpus = EncodeCorpus<T>(seed);
  for (const KernelTable* k : AvailableTiers()) {
    for (unsigned n = 1; n <= kVectorSize; ++n) {
      const std::vector<T> values(corpus.begin(), corpus.begin() + n);
      // Every combination on the short tails, two on the rest (runtime).
      const auto combos = EncodeCombinations<T>();
      for (size_t ci = 0; ci < combos.size(); ++ci) {
        if (n > 80 && ci % 3 != 0) continue;
        ExpectEncodeMatchesScalar(*k, values, combos[ci]);
      }
    }
  }
}

TEST(EncodeKernels, AlpEncodeMatchesScalarEveryTailDouble) { EncodeEveryTail<double>(81); }

TEST(EncodeKernels, AlpEncodeMatchesScalarEveryTailFloat) { EncodeEveryTail<float>(82); }

TEST(EncodeKernels, SpecialsAndRoundingEdgeEveryTier) {
  // Dense specials: every lane of every register position sees each one.
  for (const KernelTable* k : AvailableTiers()) {
    std::vector<double> d;
    std::vector<float> f;
    const std::vector<double> edge = RoundingEdge<double>();
    const std::vector<float> edge32 = RoundingEdge<float>();
    const double specials[] = {kNaN, -kNaN, kInf, -kInf, 0.0, -0.0, -0.0, 0.0,
                               std::numeric_limits<double>::denorm_min()};
    for (unsigned i = 0; i < kVectorSize; ++i) {
      d.push_back(i % 3 == 0 ? edge[i % edge.size()] : specials[i % std::size(specials)]);
      f.push_back(i % 3 == 0 ? edge32[i % edge32.size()]
                             : static_cast<float>(specials[i % std::size(specials)]));
    }
    for (const Combination c : EncodeCombinations<double>()) {
      ExpectEncodeMatchesScalar(*k, d, c);
    }
    for (const Combination c : EncodeCombinations<float>()) {
      ExpectEncodeMatchesScalar(*k, f, c);
    }
  }
}

TEST(EncodeKernels, NoExceptionsAndAllExceptions) {
  std::vector<double> decimals(kVectorSize);
  std::vector<double> noise(kVectorSize);
  std::mt19937_64 rng(83);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    decimals[i] = static_cast<double>(static_cast<int64_t>(rng() % 100000) - 50000) / 100.0;
    noise[i] = std::bit_cast<double>((uint64_t{0x3FF} << 52) | (rng() & LowMask64(52)));
  }
  const KernelTable& s = ScalarKernels();
  int64_t enc[kVectorSize];
  uint64_t map[kVectorSize / 64];
  int64_t frame[2];
  ASSERT_EQ(s.alp_encode64(decimals.data(), kVectorSize, Combination{14, 12}, enc, map, frame), 0u);
  ASSERT_EQ(s.alp_encode64(noise.data(), kVectorSize, Combination{0, 0}, enc, map, frame),
            kVectorSize);
  EXPECT_EQ(frame[0], std::numeric_limits<int64_t>::max());
  EXPECT_EQ(frame[1], std::numeric_limits<int64_t>::min());
  for (const KernelTable* k : AvailableTiers()) {
    ExpectEncodeMatchesScalar(*k, decimals, Combination{14, 12});
    ExpectEncodeMatchesScalar(*k, noise, Combination{0, 0});
  }
}

template <typename T>
void ExpectRdEncodeMatchesScalar(const KernelTable& k, const std::vector<T>& values,
                                 unsigned right_bits, const uint16_t* dict,
                                 unsigned dict_size) {
  using Uint = typename AlpTraits<T>::Uint;
  const KernelTable& s = ScalarKernels();
  const unsigned n = static_cast<unsigned>(values.size());
  std::vector<uint16_t> want_codes(kVectorSize, 9), got_codes(kVectorSize, 9);
  std::vector<Uint> want_right(kVectorSize, 9), got_right(kVectorSize, 9);
  uint64_t want_map[kVectorSize / 64], got_map[kVectorSize / 64];
  std::memset(got_map, 0xAB, sizeof(got_map));
  unsigned want_count, got_count;
  if constexpr (sizeof(T) == 8) {
    want_count = s.rd_encode64(values.data(), n, right_bits, dict, dict_size,
                               want_codes.data(), want_right.data(), want_map);
    got_count = k.rd_encode64(values.data(), n, right_bits, dict, dict_size,
                              got_codes.data(), got_right.data(), got_map);
  } else {
    want_count = s.rd_encode32(values.data(), n, right_bits, dict, dict_size,
                               want_codes.data(), want_right.data(), want_map);
    got_count = k.rd_encode32(values.data(), n, right_bits, dict, dict_size,
                              got_codes.data(), got_right.data(), got_map);
  }
  const std::string where = std::string(kernels::TierName(k.tier)) + " n=" +
                            std::to_string(n) + " p=" + std::to_string(right_bits) +
                            " dict=" + std::to_string(dict_size);
  ASSERT_EQ(got_count, want_count) << where;
  for (unsigned w = 0; w < kVectorSize / 64; ++w) {
    ASSERT_EQ(got_map[w], want_map[w]) << where << " word " << w;
  }
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(got_codes[i], want_codes[i]) << where << " i=" << i;
    ASSERT_EQ(got_right[i], want_right[i]) << where << " i=" << i;
  }
}

/// Values whose left parts (at the cut \p right_bits) come from a small
/// set, so a dictionary of the most common ones covers most lanes.
template <typename T>
std::vector<T> RdCorpus(uint64_t seed, unsigned right_bits) {
  using Uint = typename AlpTraits<T>::Uint;
  std::mt19937_64 rng(seed);
  std::vector<T> v(kVectorSize);
  for (auto& x : v) {
    const Uint left = static_cast<Uint>(0x3F0 + rng() % 11 + (rng() % 9 == 0 ? rng() % 64 : 0));
    const Uint right = static_cast<Uint>(rng()) & ((Uint{1} << right_bits) - 1);
    x = std::bit_cast<T>(static_cast<Uint>((left << right_bits) | right));
  }
  return v;
}

template <typename T>
void RdEncodeEveryTail(uint64_t seed) {
  constexpr unsigned kBits = sizeof(T) * 8;
  const unsigned right_bits = kBits - 12;
  const auto corpus = RdCorpus<T>(seed, right_bits);
  const uint16_t dict[8] = {0x3F0, 0x3F1, 0x3F2, 0x3F3, 0x3F4, 0x3F5, 0x3F6, 0x3F7};
  for (const KernelTable* k : AvailableTiers()) {
    for (unsigned n = 1; n <= kVectorSize; ++n) {
      const std::vector<T> values(corpus.begin(), corpus.begin() + n);
      ExpectRdEncodeMatchesScalar(*k, values, right_bits, dict, n % 9);
    }
  }
}

TEST(EncodeKernels, RdEncodeMatchesScalarEveryTailDouble) { RdEncodeEveryTail<double>(84); }

TEST(EncodeKernels, RdEncodeMatchesScalarEveryTailFloat) { RdEncodeEveryTail<float>(85); }

TEST(EncodeKernels, RdEncodeCutsAndAllOrNoExceptions) {
  const auto d = EncodeCorpus<double>(86);
  const auto f = EncodeCorpus<float>(87);
  // Dictionaries that cover no lane, every lane (the whole 1..3-bit left
  // space at a 61/29-bit cut), and duplicate entries (first one wins).
  const uint16_t none[8] = {0x7777, 0x7778, 0x7779, 0x777A, 0x777B, 0x777C, 0x777D, 0x777E};
  const uint16_t all[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  const uint16_t dup[8] = {4, 4, 2, 2, 0, 0, 7, 7};
  for (const KernelTable* k : AvailableTiers()) {
    for (unsigned p = 1; p <= 64; ++p) {
      ExpectRdEncodeMatchesScalar(*k, d, p, none, 8);
      ExpectRdEncodeMatchesScalar(*k, d, p, dup, 8);
      ExpectRdEncodeMatchesScalar(*k, d, p, all, p % 9);
    }
    for (unsigned p = 1; p <= 32; ++p) {
      ExpectRdEncodeMatchesScalar(*k, f, p, none, 8);
      ExpectRdEncodeMatchesScalar(*k, f, p, dup, 8);
      ExpectRdEncodeMatchesScalar(*k, f, p, all, p % 9);
    }
    uint16_t codes[kVectorSize];
    uint64_t right[kVectorSize];
    uint64_t map[kVectorSize / 64];
    EXPECT_EQ(k->rd_encode64(d.data(), kVectorSize, 61, all, 8, codes, right, map), 0u);
    EXPECT_EQ(k->rd_encode64(d.data(), kVectorSize, 61, none, 8, codes, right, map),
              kVectorSize);
  }
}

template <typename T>
void ExpectMinMaxMatchesScalar(const KernelTable& k, const std::vector<T>& values) {
  const unsigned n = static_cast<unsigned>(values.size());
  double want[2], got[2];
  if constexpr (sizeof(T) == 8) {
    ScalarKernels().minmax64(values.data(), n, want);
    k.minmax64(values.data(), n, got);
  } else {
    ScalarKernels().minmax32(values.data(), n, want);
    k.minmax32(values.data(), n, got);
  }
  ASSERT_EQ(BitsOf(got[0]), BitsOf(want[0])) << kernels::TierName(k.tier) << " n=" << n;
  ASSERT_EQ(BitsOf(got[1]), BitsOf(want[1])) << kernels::TierName(k.tier) << " n=" << n;
}

template <typename T>
void MinMaxEveryTail(uint64_t seed) {
  const auto corpus = EncodeCorpus<T>(seed);
  // Zeros as the extremes: non-negative and non-positive corpora.
  std::vector<T> nonneg(corpus), nonpos(corpus);
  for (auto& x : nonneg) x = std::isnan(x) ? x : static_cast<T>(std::fabs(x));
  for (auto& x : nonpos) x = std::isnan(x) ? x : static_cast<T>(-std::fabs(x));
  const std::vector<T>* corpora[] = {&corpus, &nonneg, &nonpos};
  for (const KernelTable* k : AvailableTiers()) {
    for (unsigned n = 1; n <= kVectorSize; ++n) {
      for (const std::vector<T>* c : corpora) {
        ExpectMinMaxMatchesScalar(*k, std::vector<T>(c->begin(), c->begin() + n));
      }
    }
  }
}

TEST(EncodeKernels, MinMaxMatchesScalarEveryTailDouble) { MinMaxEveryTail<double>(88); }

TEST(EncodeKernels, MinMaxMatchesScalarEveryTailFloat) { MinMaxEveryTail<float>(89); }

TEST(EncodeKernels, MinMaxAllNanAndSignedZeros) {
  const std::vector<double> nans(100, kNaN);
  double mm[2];
  ScalarKernels().minmax64(nans.data(), 100, mm);
  EXPECT_EQ(mm[0], kInf);
  EXPECT_EQ(mm[1], -kInf);
  for (const KernelTable* k : AvailableTiers()) {
    ExpectMinMaxMatchesScalar(*k, nans);
    // Each zero order at each position of a 64-value run.
    for (unsigned first = 0; first < 64; ++first) {
      std::vector<double> v(64, kNaN);
      v[first] = 0.0;
      v[63 - first] = -0.0;
      ExpectMinMaxMatchesScalar(*k, v);
      std::swap(v[first], v[63 - first]);
      ExpectMinMaxMatchesScalar(*k, v);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden files: re-encoding the committed values under every forced tier
// reproduces the committed bytes, serial and parallel.
// ---------------------------------------------------------------------------

TEST(KernelTiers, GoldenFilesEncodeIdenticallyOnEveryTier) {
  TierGuard guard;
  const char* kFiles[] = {"alp_small", "rd_small"};
  ThreadPool pool(3);
  for (const char* name : kFiles) {
    SCOPED_TRACE(name);
    const std::string dir = ALP_GOLDEN_DIR;
    const auto column = ReadFileBytes(dir + "/" + name + ".alp");
    ASSERT_TRUE(column.has_value());
    const auto values = ReadDoublesFileEx(dir + "/" + name + ".bin");
    ASSERT_TRUE(values.ok());
    for (const KernelTable* k : AvailableTiers()) {
      SCOPED_TRACE(kernels::TierName(k->tier));
      ASSERT_TRUE(kernels::ForceTier(k->tier));
      EXPECT_EQ(CompressColumn(values->data(), values->size()), *column);
      EXPECT_EQ(CompressColumnParallel(values->data(), values->size(), {}, nullptr, &pool),
                *column);
    }
  }
}

TEST(Kernels, NegativeBaseHandled) {
  std::vector<double> in(kVectorSize);
  for (unsigned i = 0; i < kVectorSize; ++i) {
    in[i] = -500.0 + static_cast<double>(i) * 0.25;
  }
  const Combination c{14, 12};
  EncodedVector<double> enc;
  EncodeVector(in.data(), kVectorSize, c, &enc);
  const auto ffor = fastlanes::FforAnalyze(enc.encoded, kVectorSize);
  std::vector<uint64_t> packed(kVectorSize);
  fastlanes::FforEncode(enc.encoded, packed.data(), ffor);

  std::vector<double> a(kVectorSize), b(kVectorSize), s(kVectorSize);
  DecodeVectorFused<double>(packed.data(), ffor, c, a.data());
  scalar::DecodeAlpFused(packed.data(), ffor, c, b.data());
  simd::DecodeAlpFused(packed.data(), ffor, c, s.data());
  for (unsigned i = 0; i < kVectorSize; ++i) {
    ASSERT_EQ(BitsOf(a[i]), BitsOf(in[i]));
    ASSERT_EQ(BitsOf(b[i]), BitsOf(in[i]));
    ASSERT_EQ(BitsOf(s[i]), BitsOf(in[i]));
  }
}

}  // namespace
}  // namespace alp
