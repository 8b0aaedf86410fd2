#include "alp/executor.h"

#include <cstring>
#include <limits>
#include <type_traits>

#include "alp/kernel_dispatch.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alp::exec {
namespace {

/// The vectors of a lease of validated ALP vectors.
struct AlpVectors {
  const ColumnReader<double>& reader;
  size_t first;
  bool chunk;
  uint64_t chunk_offset;
  const OpContext* ctx;

  /// Decodes vector lv into \p out and points *values at it.
  Status Decode(size_t lv, double* out, const double** values) const {
    *values = out;
    if (chunk) return DecodeChunkVector(reader, first + lv, chunk_offset, ctx, out);
    reader.DecodeVector(first + lv, out);
    return Status::Ok();
  }
};

/// The vectors of a lease of plain values, read in place.
struct PlainVectors {
  const double* values;

  Status Decode(size_t lv, double*, const double** out) const {
    *out = values + lv * kVectorSize;
    return Status::Ok();
  }
};

/// Whether \p Vectors has a packed domain to evaluate predicates on.
template <typename Vectors>
constexpr bool kPacked = std::is_same_v<std::decay_t<Vectors>, AlpVectors>;

/// Runs \p body on the lease's vectors, typed by kind: the one dispatch per
/// rowgroup.
template <typename Body>
Status WithVectors(const RowgroupLease& lease, const OpContext* ctx,
                   const Body& body) {
  if (lease.reader != nullptr) {
    return body(AlpVectors{*lease.reader, lease.first_vector, lease.chunk,
                           lease.chunk_offset, ctx});
  }
  return body(PlainVectors{lease.values});
}

unsigned VectorsIn(const VectorSource& source, size_t rg) {
  return (source.RowgroupLength(rg) + kVectorSize - 1) / kVectorSize;
}

/// Lends rowgroup \p rg and calls fn(vectors, lv, len) for every vector
/// \p keep marks (every vector when null), in order, polling \p ctx first
/// when the vectors come from a chunk; stops at the first non-OK Status.
template <typename Fn>
Status ForEachVector(const VectorSource& source, size_t rg, const bool* keep,
                     const OpContext* ctx, AlignedBuffer<double>* buffer,
                     const Fn& fn) {
  RowgroupLease lease;
  Status s = source.Lend(rg, ctx, buffer, &lease);
  if (!s.ok()) return s;
  const bool poll = lease.chunk && ctx != nullptr;
  return WithVectors(lease, ctx, [&](const auto& vectors) {
    const size_t first = rg * kRowgroupVectors;
    for (unsigned lv = 0, count = VectorsIn(source, rg); lv < count; ++lv) {
      if (keep != nullptr && !keep[lv]) continue;
      if (poll) {
        Status cs = ctx->Check();
        if (!cs.ok()) return cs;
      }
      Status vs = fn(vectors, lv, source.VectorLength(first + lv));
      if (!vs.ok()) return vs;
    }
    return Status::Ok();
  });
}

/// Zone-map push-down over rowgroup \p rg: keep[lv] marks the vectors that
/// may hold a value in the closed [lo, hi] envelope (a superset of the open
/// variants, so skipping stays conservative) — all of them when the source
/// keeps no zone map. The others count as skipped. Returns the survivors.
unsigned ZoneSurvivors(const VectorSource& source, size_t rg,
                       const Predicate& pred, bool* keep,
                       pushdown::VectorCounters* counters) {
  const VectorStats* zone = source.zone_map();
  const size_t first = rg * kRowgroupVectors;
  const unsigned count = VectorsIn(source, rg);
  unsigned survivors = 0;
  for (unsigned lv = 0; lv < count; ++lv) {
    keep[lv] = zone == nullptr || zone[first + lv].MayContain(pred.lo, pred.hi);
    survivors += keep[lv] ? 1 : 0;
  }
  counters->skipped += count - survivors;
  ALP_OBS_ONLY({
    static auto& skipped = obs::MetricRegistry::Global().GetCounter(
        "engine.pushdown.vectors_skipped");
    skipped.Add(count - survivors);
  });
  return survivors;
}

/// Decodes vector lv into \p out; plain values are copied there.
template <typename Vectors>
Status Produce(const Vectors& vectors, unsigned lv, unsigned len, double* out) {
  const double* values = nullptr;
  Status s = vectors.Decode(lv, out, &values);
  if (s.ok() && values != out) std::memcpy(out, values, len * sizeof(double));
  return s;
}

/// Adds the striped sum of vector lv (decoded into scratch) to *sum.
template <typename Vectors>
Status SumVector(const Vectors& vectors, unsigned lv, unsigned len,
                 Scratch* scratch, double* sum) {
  const double* values = nullptr;
  Status s = vectors.Decode(lv, scratch->eval.values, &values);
  if (s.ok()) *sum += pushdown::StripedSumAll(values, len);
  return s;
}

/// Selection bitmap of filter vector lv: on packed lanes under kAuto, else
/// from the decoded values (the oracle).
template <typename Vectors>
Status Select(const Vectors& vectors, unsigned lv, unsigned len,
              const TranslatedPredicate& pred, FilterMode mode, Scratch* scratch,
              uint64_t* bitmap, unsigned* selected) {
  if constexpr (kPacked<Vectors>) {
    if (mode == FilterMode::kAuto) {
      pushdown::SelectVector(vectors.reader, vectors.first + lv, pred,
                             &scratch->eval, bitmap, selected, &scratch->counters);
      return Status::Ok();
    }
  }
  const double* values = nullptr;
  Status s = vectors.Decode(lv, scratch->eval.values, &values);
  if (s.ok()) *selected = pushdown::SelectValues(values, len, pred.pred(), bitmap);
  return s;
}

/// Materializes vector lv's survivors per \p bitmap into \p out, ascending.
template <typename Vectors>
void Gather(const Vectors& vectors, unsigned lv, unsigned len,
            const uint64_t* bitmap, Scratch* scratch, double* out) {
  if constexpr (kPacked<Vectors>) {
    pushdown::GatherVector(vectors.reader, vectors.first + lv, bitmap,
                           &scratch->eval, out, &scratch->counters);
  } else {
    kernels::Active().compact64(vectors.values + lv * kVectorSize, len, bitmap,
                                out);
  }
}

}  // namespace

template <typename T>
Status DecodeChunkVector(const ColumnReader<T>& reader, size_t lv,
                         uint64_t chunk_offset, [[maybe_unused]] const OpContext* ctx,
                         T* out) {
  Status s = reader.TryDecodeVector(lv, out);
  if (!s.ok() && s.offset() != Status::kNoOffset) {
    return Status(s.code(), s.message(), s.offset() + chunk_offset);
  }
  ALP_OBS_ONLY({
    // The per-request cousin of the exceptions-per-vector histogram.
    if (s.ok() && ctx != nullptr && ctx->request != nullptr &&
        ctx->request->recorder != nullptr) {
      ctx->request->recorder->Count("decode.exceptions",
                                    reader.VectorExceptionCount(lv));
    }
  });
  return s;
}

template Status DecodeChunkVector<double>(const ColumnReader<double>&, size_t,
                                          uint64_t, const OpContext*, double*);
template Status DecodeChunkVector<float>(const ColumnReader<float>&, size_t,
                                         uint64_t, const OpContext*, float*);

Status ScanRowgroup(const VectorSource& source, size_t rg, const OpContext* ctx,
                    Scratch* scratch, double* out, double* checksum) {
  return ForEachVector(
      source, rg, nullptr, ctx, &scratch->rowgroups[0],
      [&](const auto& vectors, unsigned lv, unsigned len) {
        double* dst = out != nullptr ? out + lv * kVectorSize : scratch->eval.values;
        Status s = Produce(vectors, lv, len, dst);
        if (s.ok()) *checksum += dst[0];
        return s;
      });
}

Status SumRowgroup(const VectorSource& source, size_t rg, const OpContext* ctx,
                   Scratch* scratch, double* sum) {
  return ForEachVector(source, rg, nullptr, ctx, &scratch->rowgroups[0],
                       [&](const auto& vectors, unsigned lv, unsigned len) {
                         return SumVector(vectors, lv, len, scratch, sum);
                       });
}

Status FilterSumRowgroup(const VectorSource& source, size_t rg,
                         const TranslatedPredicate& pred, FilterMode mode,
                         const OpContext* ctx, Scratch* scratch, double* sum) {
  bool keep[kRowgroupVectors];
  if (ZoneSurvivors(source, rg, pred.pred(), keep, &scratch->counters) == 0) {
    return Status::Ok();
  }
  const VectorStats* zone = source.zone_map();
  return ForEachVector(
      source, rg, keep, ctx, &scratch->rowgroups[0],
      [&](const auto& vectors, unsigned lv, unsigned len) {
        if constexpr (kPacked<decltype(vectors)>) {
          if (mode == FilterMode::kAuto) {
            const size_t v = vectors.first + lv;
            // Full-inside fast path: the zone map proves every value
            // qualifies (only for ALP vectors without exceptions, see
            // ZoneFullInside), so the striped sum runs with no predicate —
            // bit-identical, because the oracle would select every value.
            if (zone != nullptr && vectors.reader.VectorScheme(v) == Scheme::kAlp &&
                vectors.reader.VectorExceptionCount(v) == 0 &&
                pushdown::ZoneFullInside(zone[rg * kRowgroupVectors + lv],
                                         pred.pred())) {
              ++scratch->counters.full_inside;
              ALP_OBS_ONLY({
                static auto& full_inside = obs::MetricRegistry::Global().GetCounter(
                    "engine.pushdown.vectors_full_inside");
                full_inside.Increment();
              });
              return SumVector(vectors, lv, len, scratch, sum);
            }
            pushdown::FilterSumVector(vectors.reader, v, pred, &scratch->eval, sum,
                                      &scratch->counters);
            return Status::Ok();
          }
        }
        const double* values = nullptr;
        Status s = vectors.Decode(lv, scratch->eval.values, &values);
        if (s.ok()) {
          *sum += pushdown::FilterSumValues(values, len, pred.pred(), &scratch->eval);
        }
        return s;
      });
}

Status MinMaxRowgroup(const VectorSource& source, size_t rg, const OpContext* ctx,
                      Scratch* scratch, double* min_out, double* max_out) {
  // Strict comparisons: NaNs fail both and are ignored, and a tie keeps
  // the earlier value. Folded in locals, stored once.
  double min = std::numeric_limits<double>::infinity();
  double max = -min;
  const auto fold = [&](double lo, double hi) {
    min = lo < min ? lo : min;
    max = hi > max ? hi : max;
  };
  if (const VectorStats* zone = source.zone_map(); zone != nullptr) {
    // Zone maps are exact per-vector min/max: no vector is lent, let alone
    // decoded.
    const unsigned count = VectorsIn(source, rg);
    for (unsigned lv = 0; lv < count; ++lv) {
      fold(zone[rg * kRowgroupVectors + lv].min, zone[rg * kRowgroupVectors + lv].max);
    }
    scratch->counters.skipped += count;
  } else {
    Status s = ForEachVector(
        source, rg, nullptr, ctx, &scratch->rowgroups[0],
        [&](const auto& vectors, unsigned lv, unsigned len) {
          const double* values = nullptr;
          Status ds = vectors.Decode(lv, scratch->eval.values, &values);
          for (unsigned i = 0; ds.ok() && i < len; ++i) fold(values[i], values[i]);
          return ds;
        });
    if (!s.ok()) return s;
  }
  *min_out = min;
  *max_out = max;
  return Status::Ok();
}

Status DotSumRowgroup(const VectorSource& filter, const VectorSource& a,
                      const VectorSource& b, size_t rg,
                      const TranslatedPredicate& pred, FilterMode mode,
                      const OpContext* ctx, Scratch* scratch, double* sum) {
  bool keep[kRowgroupVectors];
  if (ZoneSurvivors(filter, rg, pred.pred(), keep, &scratch->counters) == 0) {
    return Status::Ok();  // No column is lent at all.
  }
  // FILTER: a selection bitmap per surviving filter vector, before a or b
  // is lent, so a rowgroup that selects no row never touches them.
  uint64_t bitmaps[kRowgroupVectors][kVectorSize / 64];
  unsigned selected[kRowgroupVectors] = {};
  bool any = false;
  Status s = ForEachVector(filter, rg, keep, ctx, &scratch->rowgroups[0],
                           [&](const auto& f, unsigned lv, unsigned len) {
                             Status vs = Select(f, lv, len, pred, mode, scratch,
                                                bitmaps[lv], &selected[lv]);
                             any = any || selected[lv] > 0;
                             return vs;
                           });
  if (!s.ok() || !any) return s;
  RowgroupLease a_lease, b_lease;
  s = a.Lend(rg, ctx, &scratch->rowgroups[1], &a_lease);
  if (s.ok()) s = b.Lend(rg, ctx, &scratch->rowgroups[2], &b_lease);
  if (!s.ok()) return s;
  alignas(64) double a_buf[kVectorSize];
  alignas(64) double b_buf[kVectorSize];
  return WithVectors(a_lease, ctx, [&](const auto& av) {
    return WithVectors(b_lease, ctx, [&](const auto& bv) {
      const size_t first = rg * kRowgroupVectors;
      for (unsigned lv = 0, count = VectorsIn(filter, rg); lv < count; ++lv) {
        if (selected[lv] == 0) continue;
        // PROJECT: late-materialize only the survivors of a and b, in
        // ascending index order (the bit-identity contract).
        const unsigned len = filter.VectorLength(first + lv);
        Gather(av, lv, len, bitmaps[lv], scratch, a_buf);
        Gather(bv, lv, len, bitmaps[lv], scratch, b_buf);
        // AGGREGATE: the striped per-vector oracle fed survivor products.
        *sum += pushdown::StripedDotAll(a_buf, b_buf, selected[lv]);
      }
      return Status::Ok();
    });
  });
}

Status ReadVector(const VectorSource& source, size_t v, const OpContext* ctx,
                  Scratch* scratch, double* out) {
  RowgroupLease lease;
  Status s = source.Lend(v / kRowgroupVectors, ctx, &scratch->rowgroups[0], &lease);
  if (!s.ok()) return s;
  return WithVectors(lease, ctx, [&](const auto& vectors) {
    return Produce(vectors, v % kRowgroupVectors, source.VectorLength(v), out);
  });
}

}  // namespace alp::exec
