#ifndef ALP_ALP_PUSHDOWN_H_
#define ALP_ALP_PUSHDOWN_H_

#include <cstddef>
#include <cstdint>

#include "alp/column.h"
#include "alp/constants.h"
#include "alp/kernel_dispatch.h"
#include "alp/predicate.h"

/// \file pushdown.h
/// Per-vector compressed-domain predicate evaluation and the one summation
/// path, used by the executor's per-rowgroup bodies (alp/executor.h) that
/// every route runs: a translated range predicate (alp/predicate.h) is evaluated
/// directly on a vector's FFOR-packed lanes via the dispatched compare
/// kernel, producing a 1024-bit selection bitmap; exceptions are resolved
/// from the position list only, and survivors are late-materialized.
///
/// Selection-vector format: 16 little-endian uint64 words, bit i of word
/// i/64 = lane i qualifies. Tail bits at and beyond the vector length are
/// always clear.
///
/// Summation contract: every filtered and unfiltered sum runs
/// select → compact → striped sum. A bitmap (from the packed compare, or
/// from the dispatched select_f64 kernel over decoded values) drives the
/// compact64 kernel, which moves the survivors to the front of a buffer in
/// ascending index order, and StripedSumAll adds that compacted array into
/// 8 accumulators keyed by survivor ordinal, reduced by a fixed tree. The
/// oracle every path must match bitwise is SurvivorSum below (the
/// predicated loop, kept as the definition the tests check against):
/// StripedSumAll over the compacted survivors *is* SurvivorSum fed the same
/// survivors, so no path pays a 1024-deep serial FP-add chain or a
/// data-dependent stripe index, and none depends on the kernel tier.
///
/// Late materialization picks by survivor density: at or above
/// 1/DenseGatherDivisor(tier) of the vector's lanes the fused decode plus
/// an in-place compact64 is cheaper than the survivor-at-a-time gather,
/// below it the gather kernel decodes only the selected lanes. Both produce the
/// same survivor array, bit for bit.
///
/// Query fold: a rowgroup's partial is the in-order sum of its vectors'
/// striped sums, and a query's sum is the in-order sum of its rowgroup
/// partials (one slot per rowgroup, folded in rowgroup order after the
/// workers join). The engine, the seekable reader and the server all run
/// the executor's bodies and fold this way, so a sum depends on neither
/// the thread count, the morsel schedule, the cache state, the kernel tier
/// nor the route.
///
/// Skipping a non-survivor's `+= 0.0` (or a skipped vector's `+= +0.0`
/// reduction) is exact because an accumulator that starts at +0.0 can
/// never become -0.0 (IEEE-754 round-to-nearest: +0.0 + (-0.0) = +0.0,
/// and exact cancellation of non-zero addends yields +0.0), and x + 0.0
/// == x for every x except -0.0.
///
/// Fallback matrix — these decode-then-filter per vector (select_f64 over
/// the decoded values, then the same compact and striped sum), bit-
/// identically:
///   - ALP_rd rowgroups (lanes are bit-split raw doubles, not decimals;
///     RD also round-trips NaN *without* exceptions),
///   - Delta-encoded vectors (no frame-of-reference lane domain),
///   - corrupt/hostile headers (invalid width/e/f, out-of-buffer extents,
///     base + mask overflowing int64).
/// NaN/±inf/-0.0 *values* need no fallback: they only ever appear as ALP
/// exceptions, which are always checked with the double predicate.

namespace alp::pushdown {

/// Per-call vector accounting, accumulated by the caller into query
/// results; the same events also feed the global obs counters
/// engine.pushdown.vectors_{skipped,packed_eval,materialized,full_inside}.
struct VectorCounters {
  size_t skipped = 0;      ///< vectors excluded by the zone map
  size_t packed_eval = 0;  ///< vectors filtered on packed lanes
  size_t decoded = 0;      ///< vectors that fell back to decode-then-filter
  size_t full_inside = 0;  ///< vectors summed whole via the zone-map proof

  VectorCounters& operator+=(const VectorCounters& other) {
    skipped += other.skipped;
    packed_eval += other.packed_eval;
    decoded += other.decoded;
    full_inside += other.full_inside;
    return *this;
  }
};

/// Survivor density at which late materialization switches from the gather
/// kernel to fused decode + compact64: at least 1/DenseGatherDivisor(tier)
/// of the vector's lanes selected, for the dispatched kernel tier. Picked
/// from the bench_pushdown density sweep (DESIGN.md §9): the AVX2 and
/// AVX-512 tiers cross over near 1/8, the scalar tier between 1/6 and 1/2.
/// NEON compacts with the scalar store-and-advance loop, so it takes the
/// scalar threshold (not yet measured on AArch64). A constant per tier, not
/// a knob.
constexpr unsigned DenseGatherDivisor(kernels::Tier tier) {
  return tier == kernels::Tier::kAvx2 || tier == kernels::Tier::kAvx512 ? 8 : 4;
}

/// Reusable per-worker scratch: unpacked lanes (filled by the compare
/// kernel, reused by the gather so lanes unpack once), survivor values,
/// and a spare bitmap.
struct EvalScratch {
  alignas(64) uint64_t lanes[kVectorSize];
  alignas(64) double values[kVectorSize];
  uint64_t bitmap[kVectorSize / 64];
};

/// The canonical per-vector filtered-sum accumulator — THE definition of
/// the oracle every execution path must match bitwise. Survivors (in
/// ascending index order) go round-robin into 8 accumulators keyed by
/// survivor ordinal; Reduce() folds them with a fixed tree. No execution
/// path runs this loop (its stripe index depends on the data, so it is
/// serial); they all compact and call StripedSumAll, which the tests check
/// against this definition.
struct SurvivorSum {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  unsigned k = 0;  ///< Survivor ordinal (stripe cursor).

  /// Adds survivor \p x (known to match).
  void Add(double x) { acc[k++ & 7] += x; }

  /// The oracle's predicated form: non-survivors add +0.0 to the current
  /// stripe without advancing it (exact no-op; see the -0.0 lemma).
  void AddPredicated(double x, bool selected) {
    acc[k & 7] += selected ? x : 0.0;
    k += selected ? 1u : 0u;
  }

  /// Fixed reduction tree; +0.0 when no survivor was added.
  double Reduce() const {
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  }
};

/// StripedSumAll(v, n) == { SurvivorSum ss; for i < n: ss.Add(v[i]);
/// ss.Reduce() } — bit-for-bit, but with the stripe index static (i & 7),
/// so the eight accumulator chains are independent in registers and the
/// compiler can vectorize them (one vaddpd per 8 values instead of a
/// serial FP-add every value). Use whenever every element survives: the
/// compacted output of a gather, a full-inside vector, survivor products.
inline double StripedSumAll(const double* v, unsigned n) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  unsigned i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned j = 0; j < 8; ++j) acc[j] += v[i + j];
  }
  for (; i < n; ++i) acc[i & 7] += v[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Survivor-product variant: bitwise equal to feeding a[i] * b[i] for
/// i < n through SurvivorSum.
inline double StripedDotAll(const double* a, const double* b, unsigned n) {
  double acc[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  unsigned i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned j = 0; j < 8; ++j) acc[j] += a[i + j] * b[i + j];
  }
  for (; i < n; ++i) acc[i & 7] += a[i] * b[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Whether the zone map *proves* every decodable value of the vector
/// satisfies \p pred. Only a proof when the vector is ALP-scheme with
/// zero exceptions: ALP forces NaN/±inf into exceptions (so no-exception
/// vectors hold only finite values inside [min, max]), while ALP_rd
/// round-trips NaN with no exception record.
bool ZoneFullInside(const VectorStats& stats, const Predicate& pred);

/// Filters vector \p v and adds the qualifying values to *sum in index
/// order, on packed lanes when possible, else decode-then-filter.
/// Zone-map skipping and the full-inside fast path are the caller's job.
void FilterSumVector(const ColumnReader<double>& reader, size_t v,
                     const TranslatedPredicate& pred, EvalScratch* scratch,
                     double* sum, VectorCounters* counters);

/// Computes vector \p v's selection bitmap (16 words) under \p pred and
/// its survivor count, on packed lanes when possible.
void SelectVector(const ColumnReader<double>& reader, size_t v,
                  const TranslatedPredicate& pred, EvalScratch* scratch,
                  uint64_t* bitmap, unsigned* count, VectorCounters* counters);

/// Materializes vector \p v's survivors per \p bitmap into out[] (room
/// for kVectorSize values) in ascending index order, returning the
/// survivor count. Works for any selection bitmap (the predicate is not
/// needed). FFOR-packed vectors go through the gather kernel, or, at or
/// above the DenseGatherDivisor(tier) density, fused decode + compact64;
/// other vectors decode and compact. \p bitmap must not be scratch->bitmap (the
/// sparse gather unpacks lanes through the compare kernel, whose side
/// bitmap lands there).
unsigned GatherVector(const ColumnReader<double>& reader, size_t v,
                      const uint64_t* bitmap, EvalScratch* scratch,
                      double* out, VectorCounters* counters);

/// Bitmap of the values[0..n) that satisfy \p pred (dispatched select_f64;
/// exactly Predicate::Matches per value); returns the survivor count.
unsigned SelectValues(const double* values, unsigned n, const Predicate& pred,
                      uint64_t* bitmap);

/// The filtered sum of one vector's decoded values[0..n): SelectValues
/// into scratch->bitmap, compact64 into scratch->values (\p values may be
/// scratch->values: the compaction runs in place), then StripedSumAll.
/// Bitwise equal to the SurvivorSum oracle fed the values that match.
double FilterSumValues(const double* values, unsigned n, const Predicate& pred,
                       EvalScratch* scratch);

}  // namespace alp::pushdown

#endif  // ALP_ALP_PUSHDOWN_H_
