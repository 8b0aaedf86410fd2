#include "engine/operators.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "alp/pushdown.h"
#include "engine/morsel.h"
#include "util/cycle_clock.h"

namespace alp::engine {
namespace {

/// The engine's morsel loop over one column's rowgroups (engine/morsel.h):
/// one partial slot per rowgroup, folded in rowgroup order.
template <typename PerRowgroup>
QueryResult RunParallel(const StoredColumn& column, ThreadPool& pool,
                        const OpContext* ctx, const PerRowgroup& per_rowgroup) {
  return internal::RunMorsels(column.rowgroup_count(), column.value_count(),
                              pool, ctx, per_rowgroup);
}

/// Filtered sum of one rowgroup's values, vector by vector (the oracle
/// stripes per vector, so every storage scheme chunks the same way).
double FilterSumRowgroupValues(const double* values, unsigned len,
                               const Predicate& pred,
                               pushdown::EvalScratch* scratch) {
  double sum = 0.0;
  for (unsigned v0 = 0; v0 < len; v0 += kVectorSize) {
    const unsigned n = std::min<unsigned>(kVectorSize, len - v0);
    sum += pushdown::FilterSumValues(values + v0, n, pred, scratch);
  }
  return sum;
}

}  // namespace

QueryResult RunScan(const StoredColumn& column, ThreadPool& pool,
                    const OpContext* ctx) {
  return RunParallel(
      column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
        const unsigned len = column.RowgroupLength(rg);
        Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
        if (!s.ok()) return s;
        // Touch one value per vector so the decode cannot be elided; this
        // is the "scan operator produced a vector" hand-off point.
        double checksum = 0.0;
        for (unsigned v = 0; v < len; v += kVectorSize) checksum += buffer[v];
        *acc += checksum;
        return Status::Ok();
      });
}

QueryResult RunSum(const StoredColumn& column, ThreadPool& pool,
                   const OpContext* ctx) {
  // Every route sums a rowgroup as its vectors' striped sums in order
  // (pushdown.h), so the result matches the seekable reader and the server.
  const ColumnReader<double>* in_memory =
      column.Seekable() == nullptr ? column.AlpReader() : nullptr;
  return RunParallel(
      column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
        const unsigned len = column.RowgroupLength(rg);
        if (in_memory != nullptr) {
          // Decode and sum a vector at a time, so the rowgroup buffer is
          // never filled: this keeps the per-worker buffers out of resident
          // memory (perfbench analytics peak RSS 34.7 -> 26.4 MB on a
          // 4-vCPU AVX-512 Xeon; CPU time unchanged within noise).
          const size_t first = rg * kRowgroupVectors;
          const size_t last = first + (len + kVectorSize - 1) / kVectorSize;
          for (size_t v = first; v < last; ++v) {
            in_memory->DecodeVector(v, buffer);
            *acc += pushdown::StripedSumAll(buffer, in_memory->VectorLength(v));
          }
          return Status::Ok();
        }
        // Uncompressed columns aggregate in place (no buffer-pool copy).
        const double* data = column.RowgroupPointer(rg);
        if (data == nullptr) {
          Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
          if (!s.ok()) return s;
          data = buffer;
        }
        *acc += pushdown::StripedSumVectors(data, len);
        return Status::Ok();
      });
}

QueryResult RunFilterSum(const StoredColumn& column, double lo, double hi,
                         ThreadPool& pool, const OpContext* ctx) {
  return RunFilterSum(column, Predicate::Between(lo, hi), pool, ctx);
}

QueryResult RunFilterSum(const StoredColumn& column, const Predicate& pred,
                         ThreadPool& pool, const OpContext* ctx,
                         FilterMode mode) {
  const ColumnReader<double>* alp_reader = column.AlpReader();
  std::atomic<size_t> skipped{0};
  std::atomic<size_t> packed_eval{0};
  std::atomic<size_t> full_inside{0};
  // Translated once per query (immutable, shared by all workers). The zone
  // map is still consulted with the closed envelope [lo, hi] — a superset
  // of the open variants, so skipping stays conservative.
  const TranslatedPredicate tp(pred);

  QueryResult result;
  const io::SeekableReader<double>* seekable = column.Seekable();
  if (seekable != nullptr && mode == FilterMode::kAuto) {
    // Out-of-core compressed-domain push-down: the zone map (resident
    // index region) drops vectors before any chunk is fetched, and the
    // fetched chunk's surviving vectors are filtered on their packed lanes
    // without decoding (cache hits filter the already-decoded values).
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double*, double* acc) {
          double sum = 0.0;
          pushdown::VectorCounters counters;
          Status s = seekable->FilterSumRowgroup(rg, tp, &sum, &counters, ctx);
          if (!s.ok()) return s;
          skipped.fetch_add(counters.skipped, std::memory_order_relaxed);
          packed_eval.fetch_add(counters.packed_eval,
                                std::memory_order_relaxed);
          full_inside.fetch_add(counters.full_inside,
                                std::memory_order_relaxed);
          *acc += sum;
          return Status::Ok();
        });
  } else if (seekable != nullptr) {
    // Oracle mode over the out-of-core path: decode every surviving vector
    // through the chunked reader, then select + compact + striped sum.
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double*, double* acc) {
          const size_t first_vector = rg * kRowgroupVectors;
          const size_t vectors =
              (column.RowgroupLength(rg) + kVectorSize - 1) / kVectorSize;
          size_t local_skipped = 0;
          for (size_t v = first_vector; v < first_vector + vectors; ++v) {
            if (!seekable->VectorMayContain(v, pred.lo, pred.hi)) {
              ++local_skipped;
            }
          }
          skipped.fetch_add(local_skipped, std::memory_order_relaxed);
          pushdown::NoteSkippedVectors(local_skipped);
          double sum = 0.0;
          pushdown::EvalScratch scratch;
          const io::SeekableReader<double>::VectorFilter want = [&](size_t v) {
            return seekable->VectorMayContain(v, pred.lo, pred.hi);
          };
          Status s = seekable->VisitRowgroup(
              rg,
              [&](size_t, const double* values, unsigned len) {
                sum += pushdown::FilterSumValues(values, len, pred, &scratch);
                return Status::Ok();
              },
              ctx, &want);
          if (!s.ok()) return s;
          *acc += sum;
          return Status::Ok();
        });
  } else if (alp_reader != nullptr) {
    // In-memory push-down: the zone map skips disjoint vectors; survivors
    // are evaluated on their packed lanes (kAuto) or decoded and filtered
    // by select + compact + striped sum (kDecodeThenFilter).
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double*, double* acc) {
          const size_t first_vector = rg * kRowgroupVectors;
          const size_t vectors =
              (column.RowgroupLength(rg) + kVectorSize - 1) / kVectorSize;
          double sum = 0.0;
          size_t local_skipped = 0;
          pushdown::VectorCounters counters;
          pushdown::EvalScratch scratch;
          for (size_t v = 0; v < vectors; ++v) {
            const size_t vec = first_vector + v;
            if (!alp_reader->VectorMayContain(vec, pred.lo, pred.hi)) {
              ++local_skipped;
              continue;
            }
            if (mode == FilterMode::kAuto) {
              if (pushdown::CanSumWholeVector(*alp_reader, vec, pred)) {
                // Zone map proves every value qualifies: striped sum with
                // no predicate (bit-identical — the oracle would select
                // every value, giving the same survivor sequence).
                ++counters.full_inside;
                alp_reader->DecodeVector(vec, scratch.values);
                sum += pushdown::StripedSumAll(scratch.values,
                                               alp_reader->VectorLength(vec));
                continue;
              }
              pushdown::FilterSumVector(*alp_reader, vec, tp, &scratch, &sum,
                                        &counters);
              continue;
            }
            alp_reader->DecodeVector(vec, scratch.values);
            sum += pushdown::FilterSumValues(
                scratch.values, alp_reader->VectorLength(vec), pred, &scratch);
          }
          skipped.fetch_add(local_skipped, std::memory_order_relaxed);
          pushdown::NoteSkippedVectors(local_skipped);
          packed_eval.fetch_add(counters.packed_eval,
                                std::memory_order_relaxed);
          full_inside.fetch_add(counters.full_inside,
                                std::memory_order_relaxed);
          *acc += sum;
          return Status::Ok();
        });
  } else if (column.RowgroupPointer(0) != nullptr) {
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double*, double* acc) {
          pushdown::EvalScratch scratch;
          *acc += FilterSumRowgroupValues(column.RowgroupPointer(rg),
                                          column.RowgroupLength(rg), pred,
                                          &scratch);
          return Status::Ok();
        });
  } else {
    // Block-based storage: the whole rowgroup must be decompressed before
    // the predicate can run (the paper's Zstd disadvantage).
    result = RunParallel(
        column, pool, ctx, [&](size_t rg, double* buffer, double* acc) {
          Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
          if (!s.ok()) return s;
          pushdown::EvalScratch scratch;
          *acc += FilterSumRowgroupValues(buffer, column.RowgroupLength(rg),
                                          pred, &scratch);
          return Status::Ok();
        });
  }
  result.vectors_skipped = skipped.load();
  result.vectors_packed_eval = packed_eval.load();
  result.vectors_full_inside = full_inside.load();
  return result;
}

QueryResult RunMinMax(const StoredColumn& column, ThreadPool& pool, double* min_out,
                      double* max_out, const OpContext* ctx) {
  const ColumnReader<double>* alp_reader = column.AlpReader();
  double min = std::numeric_limits<double>::infinity();
  double max = -min;

  if (alp_reader != nullptr) {
    // Zone maps are exact per-vector min/max: the aggregate needs no
    // decoding at all (and finishes in microseconds, so one up-front
    // cancellation check suffices).
    QueryResult result;
    if (ctx != nullptr) {
      result.status = ctx->Check();
      if (!result.status.ok()) return result;
    }
    const uint64_t start = CycleNow();
    for (size_t v = 0; v < alp_reader->vector_count(); ++v) {
      const VectorStats& stats = alp_reader->Stats(v);
      min = stats.min < min ? stats.min : min;
      max = stats.max > max ? stats.max : max;
    }
    result.cycles = CycleNow() - start;
    result.tuples = column.value_count();
    result.threads = pool.size();
    result.vectors_skipped = alp_reader->vector_count();
    *min_out = min;
    *max_out = max;
    result.sum = min;
    return result;
  }

  // Lock-free folds over the rowgroup-local minima/maxima (NaNs fail the
  // improvement comparison and are ignored, SQL-style).
  std::atomic<uint64_t> min_cell{std::bit_cast<uint64_t>(min)};
  std::atomic<uint64_t> max_cell{std::bit_cast<uint64_t>(max)};
  const auto fold = [](std::atomic<uint64_t>& cell, double value, bool is_min) {
    uint64_t expected = cell.load(std::memory_order_relaxed);
    while (true) {
      const double current = std::bit_cast<double>(expected);
      const bool improves = is_min ? value < current : value > current;
      if (!improves) return;
      if (cell.compare_exchange_weak(expected, std::bit_cast<uint64_t>(value),
                                     std::memory_order_relaxed)) {
        return;
      }
    }
  };

  QueryResult result = RunParallel(
      column, pool, ctx, [&](size_t rg, double* buffer, double*) {
        const double* data = column.RowgroupPointer(rg);
        if (data == nullptr) {
          Status s = column.TryDecodeRowgroup(rg, buffer, ctx);
          if (!s.ok()) return s;
          data = buffer;
        }
        const unsigned len = column.RowgroupLength(rg);
        double local_min = std::numeric_limits<double>::infinity();
        double local_max = -local_min;
        for (unsigned i = 0; i < len; ++i) {
          local_min = data[i] < local_min ? data[i] : local_min;
          local_max = data[i] > local_max ? data[i] : local_max;
        }
        fold(min_cell, local_min, true);
        fold(max_cell, local_max, false);
        return Status::Ok();
      });
  min = std::bit_cast<double>(min_cell.load());
  max = std::bit_cast<double>(max_cell.load());
  *min_out = min;
  *max_out = max;
  result.sum = min;
  return result;
}

QueryResult RunCompression(const StoredColumn& column, const double* data, size_t n) {
  QueryResult result;
  result.tuples = n;
  result.threads = 1;
  const uint64_t start = CycleNow();
  if (column.scheme() == "Uncompressed") {
    result.cycles = 0;
    return result;
  }
  if (column.scheme() == "ALP") {
    const auto buffer = CompressColumn(data, n);
    result.sum = static_cast<double>(buffer.size());
  } else {
    // Rebuild with the same codec, rowgroup blocks like MakeCodec.
    StoredColumn rebuilt = StoredColumn::MakeCodec(
        [&]() -> std::unique_ptr<codecs::DoubleCodec> {
          for (auto& codec : codecs::AllDoubleCodecs()) {
            if (codec->name() == column.scheme()) return std::move(codec);
          }
          return codecs::MakeAlpCodec();
        }(),
        data, n);
    result.sum = static_cast<double>(rebuilt.compressed_bytes());
  }
  result.cycles = CycleNow() - start;
  return result;
}

}  // namespace alp::engine
