#include "engine/operators.h"

#include <limits>
#include <vector>

#include "engine/morsel.h"
#include "util/cycle_clock.h"

namespace alp::engine {

using internal::RunMorsels;

QueryResult RunScan(const StoredColumn& column, ThreadPool& pool,
                    const OpContext* ctx) {
  return RunMorsels(
      column.source(), pool, ctx, [&](size_t rg, exec::Scratch* scratch, double* acc) {
        return exec::ScanRowgroup(column.source(), rg, ctx, scratch, nullptr, acc);
      });
}

QueryResult RunSum(const StoredColumn& column, ThreadPool& pool,
                   const OpContext* ctx) {
  return RunMorsels(
      column.source(), pool, ctx, [&](size_t rg, exec::Scratch* scratch, double* acc) {
        return exec::SumRowgroup(column.source(), rg, ctx, scratch, acc);
      });
}

QueryResult RunFilterSum(const StoredColumn& column, double lo, double hi,
                         ThreadPool& pool, const OpContext* ctx) {
  return RunFilterSum(column, Predicate::Between(lo, hi), pool, ctx);
}

QueryResult RunFilterSum(const StoredColumn& column, const Predicate& pred,
                         ThreadPool& pool, const OpContext* ctx,
                         FilterMode mode) {
  // Translated once per query (immutable, shared by all workers).
  const TranslatedPredicate tp(pred);
  return RunMorsels(
      column.source(), pool, ctx, [&](size_t rg, exec::Scratch* scratch, double* acc) {
        return exec::FilterSumRowgroup(column.source(), rg, tp, mode, ctx,
                                       scratch, acc);
      });
}

QueryResult RunMinMax(const StoredColumn& column, ThreadPool& pool, double* min_out,
                      double* max_out, const OpContext* ctx) {
  // One min/max slot per rowgroup, folded in rowgroup order after the join
  // (like the sums' partials), so ties resolve the same way at every
  // thread count.
  const size_t rowgroups = column.source().rowgroup_count();
  std::vector<double> mins(rowgroups), maxs(rowgroups);
  QueryResult result = RunMorsels(
      column.source(), pool, ctx, [&](size_t rg, exec::Scratch* scratch, double*) {
        return exec::MinMaxRowgroup(column.source(), rg, ctx, scratch, &mins[rg],
                                    &maxs[rg]);
      });
  *min_out = std::numeric_limits<double>::infinity();
  *max_out = -*min_out;
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    *min_out = mins[rg] < *min_out ? mins[rg] : *min_out;
    *max_out = maxs[rg] > *max_out ? maxs[rg] : *max_out;
  }
  result.sum = *min_out;
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
