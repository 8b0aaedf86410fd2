#include "alp/pushdown.h"

#include <bit>

#include "alp/kernel_dispatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alp::pushdown {
namespace {

constexpr unsigned kBitmapWords = kVectorSize / 64;

void NotePackedEval() {
  ALP_OBS_ONLY({
    static auto& c = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_packed_eval");
    c.Increment();
  });
}

void NoteMaterialized() {
  ALP_OBS_ONLY({
    static auto& c = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_materialized");
    c.Increment();
  });
}

// Clears bitmap bits at and beyond `len` (the encoder pads partial blocks
// with an in-range value, so tail lanes would otherwise qualify).
void ClearTail(uint64_t* bitmap, unsigned len) {
  const unsigned word = len / 64;
  if (word >= kBitmapWords) return;
  bitmap[word] &= (len % 64) ? ((uint64_t{1} << (len % 64)) - 1) : 0;
  for (unsigned w = word + 1; w < kBitmapWords; ++w) bitmap[w] = 0;
}

// Exception slots hold placeholder integers; their bitmap bits are decided
// from the exception *values* instead. List order so later entries win on
// (never encoder-produced) duplicate positions, matching patch semantics.
void FixupExceptionBits(const ColumnReader<double>::PackedVectorView& view,
                        const TranslatedPredicate& pred, unsigned len,
                        uint64_t* bitmap) {
  for (unsigned i = 0; i < view.exc_count; ++i) {
    const unsigned pos = view.exc_positions[i];
    if (pos >= len) continue;
    const uint64_t bit = uint64_t{1} << (pos % 64);
    if (pred.Matches(std::bit_cast<double>(view.exc_bits[i]))) {
      bitmap[pos / 64] |= bit;
    } else {
      bitmap[pos / 64] &= ~bit;
    }
  }
}

unsigned PopcountBitmap(const uint64_t* bitmap) {
  unsigned n = 0;
  for (unsigned w = 0; w < kBitmapWords; ++w) {
    n += static_cast<unsigned>(std::popcount(bitmap[w]));
  }
  return n;
}

// Survivor index of `pos` in the compacted output: set bits before it.
unsigned Rank(const uint64_t* bitmap, unsigned pos) {
  unsigned r = 0;
  for (unsigned w = 0; w < pos / 64; ++w) {
    r += static_cast<unsigned>(std::popcount(bitmap[w]));
  }
  return r + static_cast<unsigned>(
                 std::popcount(bitmap[pos / 64] & ((uint64_t{1} << (pos % 64)) - 1)));
}

// Materializes the survivors of an FFOR-packed vector per `bitmap`
// (`selected` set bits, none at or beyond view.n) into out[], ascending.
// Dense selections decode the whole vector with the fused SIMD kernel and
// compact it in place; sparse ones gather survivor by survivor from
// scratch->lanes (unpacked here unless `lanes_unpacked`, through the
// compare kernel with the full range; its side bitmap lands in
// scratch->bitmap, so `bitmap` must not be scratch->bitmap then) and patch
// the selected exception positions.
unsigned MaterializeSurvivors(const ColumnReader<double>& reader, size_t v,
                              const ColumnReader<double>::PackedVectorView& view,
                              const uint64_t* bitmap, unsigned selected,
                              bool lanes_unpacked, EvalScratch* scratch,
                              double* out) {
  const kernels::KernelTable& k = kernels::Active();
  if (selected * DenseGatherDivisor(k.tier) >= view.n) {
    reader.DecodeVector(v, out);
    return selected == view.n ? selected : k.compact64(out, view.n, bitmap, out);
  }
  if (!lanes_unpacked) {
    k.cmp_range64(view.packed, view.ffor.width, 0, ~uint64_t{0}, scratch->lanes,
                  scratch->bitmap);
  }
  const double f10_f = AlpTraits<double>::kF10[view.c.f];
  const double if10_e = AlpTraits<double>::kIF10[view.c.e];
  const unsigned count =
      k.gather64(scratch->lanes, view.ffor.base, f10_f, if10_e, bitmap, out);
  for (unsigned i = 0; i < view.exc_count; ++i) {
    const unsigned pos = view.exc_positions[i];
    if (pos >= view.n) continue;
    if (!(bitmap[pos / 64] & (uint64_t{1} << (pos % 64)))) continue;
    out[Rank(bitmap, pos)] = std::bit_cast<double>(view.exc_bits[i]);
  }
  return count;
}

// Packed-domain view + applicable lane range, or nothing (fallback).
struct PackedPlan {
  ColumnReader<double>::PackedVectorView view;
  LaneRange range;
  bool ok = false;
};

PackedPlan PlanPacked(const ColumnReader<double>& reader, size_t v,
                      const TranslatedPredicate& pred) {
  PackedPlan plan;
  if (!reader.GetPackedVectorView(v, &plan.view)) return plan;
  plan.range = ToLaneRange(pred.Bounds(plan.view.c), plan.view.ffor);
  plan.ok = plan.range.applicable;
  return plan;
}

// Packed compare + exception fixup into `bitmap`, leaving the unpacked
// lanes in `lanes` for a following gather. An empty lane range still
// unpacks (with the unsatisfiable [1, 0]); only exceptions can qualify.
void SelectPacked(const PackedPlan& plan, const TranslatedPredicate& pred,
                  uint64_t* lanes, uint64_t* bitmap) {
  const uint64_t lo = plan.range.empty ? 1 : plan.range.lo;
  const uint64_t hi = plan.range.empty ? 0 : plan.range.hi;
  kernels::Active().cmp_range64(plan.view.packed, plan.view.ffor.width, lo, hi,
                                lanes, bitmap);
  ClearTail(bitmap, plan.view.n);
  FixupExceptionBits(plan.view, pred, plan.view.n, bitmap);
}

}  // namespace

bool ZoneFullInside(const VectorStats& stats, const Predicate& pred) {
  if (!(stats.min <= stats.max)) return false;  // no comparable values
  return (pred.lo_open ? stats.min > pred.lo : stats.min >= pred.lo) &&
         (pred.hi_open ? stats.max < pred.hi : stats.max <= pred.hi);
}

void FilterSumVector(const ColumnReader<double>& reader, size_t v,
                     const TranslatedPredicate& pred, EvalScratch* scratch,
                     double* sum, VectorCounters* counters) {
  const PackedPlan plan = PlanPacked(reader, v, pred);
  if (plan.ok) {
    ALP_OBS_SPAN(span, "engine.pushdown.packed", plan.view.n);
    ++counters->packed_eval;
    NotePackedEval();
    SelectPacked(plan, pred, scratch->lanes, scratch->bitmap);
    const unsigned count = MaterializeSurvivors(
        reader, v, plan.view, scratch->bitmap, PopcountBitmap(scratch->bitmap),
        /*lanes_unpacked=*/true, scratch, scratch->values);
    *sum += StripedSumAll(scratch->values, count);
    return;
  }

  // Decode-then-filter fallback: select, compact, striped sum.
  const unsigned len = reader.VectorLength(v);
  ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
  ++counters->decoded;
  NoteMaterialized();
  reader.DecodeVector(v, scratch->values);
  *sum += FilterSumValues(scratch->values, len, pred.pred(), scratch);
}

void SelectVector(const ColumnReader<double>& reader, size_t v,
                  const TranslatedPredicate& pred, EvalScratch* scratch,
                  uint64_t* bitmap, unsigned* count, VectorCounters* counters) {
  const PackedPlan plan = PlanPacked(reader, v, pred);
  if (plan.ok) {
    ALP_OBS_SPAN(span, "engine.pushdown.packed", plan.view.n);
    ++counters->packed_eval;
    NotePackedEval();
    SelectPacked(plan, pred, scratch->lanes, bitmap);
    *count = PopcountBitmap(bitmap);
    return;
  }

  const unsigned len = reader.VectorLength(v);
  ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
  ++counters->decoded;
  NoteMaterialized();
  reader.DecodeVector(v, scratch->values);
  *count = SelectValues(scratch->values, len, pred.pred(), bitmap);
}

unsigned GatherVector(const ColumnReader<double>& reader, size_t v,
                      const uint64_t* bitmap, EvalScratch* scratch,
                      double* out, VectorCounters* counters) {
  ColumnReader<double>::PackedVectorView view;
  if (reader.GetPackedVectorView(v, &view)) {
    ALP_OBS_SPAN(span, "engine.pushdown.gather", view.n);
    return MaterializeSurvivors(reader, v, view, bitmap, PopcountBitmap(bitmap),
                                /*lanes_unpacked=*/false, scratch, out);
  }

  const unsigned len = reader.VectorLength(v);
  ALP_OBS_SPAN(span, "engine.pushdown.decode", len);
  ++counters->decoded;
  NoteMaterialized();
  reader.DecodeVector(v, scratch->values);
  return kernels::Active().compact64(scratch->values, len, bitmap, out);
}

unsigned SelectValues(const double* values, unsigned n, const Predicate& pred,
                      uint64_t* bitmap) {
  kernels::Active().select_f64(values, n, pred.lo, pred.hi, pred.lo_open,
                               pred.hi_open, bitmap);
  return PopcountBitmap(bitmap);
}

double FilterSumValues(const double* values, unsigned n, const Predicate& pred,
                       EvalScratch* scratch) {
  SelectValues(values, n, pred, scratch->bitmap);
  const unsigned count = kernels::Active().compact64(values, n, scratch->bitmap,
                                                     scratch->values);
  return StripedSumAll(scratch->values, count);
}

}  // namespace alp::pushdown
