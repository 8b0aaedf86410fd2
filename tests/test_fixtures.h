// Shared column-building fixtures for the robustness test tier
// (test_corruption, test_golden, test_parallel). Everything here is
// deterministic: the same seed always builds the same values and - because
// the encoder is byte-deterministic - the same compressed buffer, which is
// what lets the golden-vector suite pin exact bytes and the corruption
// suite replay exact mutations.
#ifndef ALP_TESTS_TEST_FIXTURES_H_
#define ALP_TESTS_TEST_FIXTURES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "alp/alp.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "util/bits.h"
#include "util/status.h"

namespace alp {
namespace testutil {

/// Mostly-decimal data (compresses via ALP) with occasional specials.
inline std::vector<double> DecimalData(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<double> data(n);
  for (auto& v : data) {
    switch (rng() % 16) {
      case 0: v = DoubleFromBits(rng()); break;  // Exception fodder.
      case 1: v = 0.0; break;
      default: {
        const int64_t d = static_cast<int64_t>(rng() % 1000000) - 500000;
        v = static_cast<double>(d) / 100.0;
        break;
      }
    }
  }
  return data;
}

/// Full-precision reals: the sampler sends these rowgroups to ALP_rd.
inline std::vector<double> HighPrecisionData(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<double> data(n);
  for (auto& v : data) {
    v = DoubleFromBits((rng() & 0x000FFFFFFFFFFFFFULL) | 0x3FE0000000000000ULL);
  }
  return data;
}

/// The summation contract of alp/pushdown.h, computed from raw values with
/// the SurvivorSum definition: each vector's survivors (every value when
/// \p pred is null) go through SurvivorSum, the vector sums are added in
/// order into a per-rowgroup partial, and the partials are folded in
/// rowgroup order. Every sum route — engine, seekable reader, server, at
/// any thread count and kernel tier — must return exactly these bits.
inline double ContractSum(const std::vector<double>& values,
                          const Predicate* pred = nullptr) {
  double sum = 0.0;
  for (size_t rg = 0; rg < values.size(); rg += kRowgroupSize) {
    double partial = 0.0;
    const size_t rg_end = std::min(values.size(), rg + kRowgroupSize);
    for (size_t v = rg; v < rg_end; v += kVectorSize) {
      pushdown::SurvivorSum ss;
      for (size_t i = v; i < std::min(rg_end, v + kVectorSize); ++i) {
        if (pred == nullptr || pred->Matches(values[i])) ss.Add(values[i]);
      }
      partial += ss.Reduce();
    }
    sum += partial;
  }
  return sum;
}

struct Corpus {
  const char* name;
  std::vector<double> values;
  std::vector<uint8_t> buffer;
};

inline Corpus MakeCorpus(const char* name, std::vector<double> values) {
  Corpus corpus;
  corpus.name = name;
  corpus.values = std::move(values);
  corpus.buffer = CompressColumn(corpus.values.data(), corpus.values.size());
  return corpus;
}

/// Small single-rowgroup ALP column (small enough to flip every bit of).
inline const Corpus& AlpSmall() {
  static const Corpus corpus =
      MakeCorpus("alp_small", DecimalData(101, 2 * kVectorSize + 77));
  return corpus;
}

/// Small ALP_rd column, exercising the RdHeader/dictionary paths.
inline const Corpus& RdSmall() {
  static const Corpus corpus =
      MakeCorpus("rd_small", HighPrecisionData(202, kVectorSize + 13));
  return corpus;
}

/// Two rowgroups, mixed schemes, for seeded random mutations and for
/// exercising per-rowgroup parallelism with more than one task.
inline const Corpus& TwoRowgroups() {
  static const Corpus corpus = [] {
    std::vector<double> values = DecimalData(303, kRowgroupSize);
    const std::vector<double> tail =
        HighPrecisionData(304, 3 * kVectorSize + 5);
    values.insert(values.end(), tail.begin(), tail.end());
    return MakeCorpus("two_rowgroups", std::move(values));
  }();
  return corpus;
}

enum class MutationOutcome { kRejected, kRoundTripped, kSilentCorruption };

/// Decodes a (possibly mutated) buffer through the fallible path and
/// classifies the result against the original values.
inline MutationOutcome Classify(const std::vector<uint8_t>& buffer,
                                const std::vector<double>& original) {
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(buffer.data(), buffer.size());
  if (!reader.ok()) return MutationOutcome::kRejected;
  if (reader->value_count() != original.size()) {
    return MutationOutcome::kSilentCorruption;
  }
  std::vector<double> out(reader->value_count());
  if (!reader->TryDecodeAll(out.data()).ok()) return MutationOutcome::kRejected;
  return std::memcmp(out.data(), original.data(),
                     original.size() * sizeof(double)) == 0
             ? MutationOutcome::kRoundTripped
             : MutationOutcome::kSilentCorruption;
}

/// Byte offset of the version field inside ColumnHeader. Flipping it is the
/// one mutation checksums cannot flag (a 3 -> 2 downgrade disables
/// verification), so those cases fall back to the reject-or-round-trip
/// invariant instead of must-reject.
constexpr size_t kVersionByte = 4;

/// Rewrites a v3 buffer as the v2 layout it extends: drops the rowgroup
/// checksum section and the header checksum slot, and rebases the rowgroup
/// offsets. The result is byte-identical to what the v2 writer produced.
inline std::vector<uint8_t> StripToV2(const std::vector<uint8_t>& v3) {
  uint64_t value_count = 0;
  uint32_t rowgroup_count = 0;
  std::memcpy(&value_count, v3.data() + 8, sizeof(value_count));
  std::memcpy(&rowgroup_count, v3.data() + 16, sizeof(rowgroup_count));
  const size_t total_vectors = (value_count + kVectorSize - 1) / kVectorSize;

  const size_t offsets_at = 24;
  const size_t checksums_at = offsets_at + size_t{rowgroup_count} * 8;
  const size_t stats_at = checksums_at + size_t{rowgroup_count} * 8;
  const size_t header_checksum_at = stats_at + total_vectors * 16;
  const size_t payload_begin = header_checksum_at + 8;
  const size_t delta = payload_begin - (checksums_at + total_vectors * 16);

  std::vector<uint8_t> v2;
  v2.insert(v2.end(), v3.begin(), v3.begin() + checksums_at);
  v2.insert(v2.end(), v3.begin() + stats_at, v3.begin() + header_checksum_at);
  v2.insert(v2.end(), v3.begin() + payload_begin, v3.end());
  v2[kVersionByte] = 2;
  for (uint32_t rg = 0; rg < rowgroup_count; ++rg) {
    uint64_t offset = 0;
    std::memcpy(&offset, v2.data() + offsets_at + rg * 8, sizeof(offset));
    offset -= delta;
    std::memcpy(v2.data() + offsets_at + rg * 8, &offset, sizeof(offset));
  }
  return v2;
}

}  // namespace testutil
}  // namespace alp

#endif  // ALP_TESTS_TEST_FIXTURES_H_
