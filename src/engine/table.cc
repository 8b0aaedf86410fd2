#include "engine/table.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "alp/kernel_dispatch.h"
#include "alp/pushdown.h"
#include "engine/morsel.h"

namespace alp::engine {
namespace {

/// Vector-addressable view over an ALP or Uncompressed column.
class VectorSource {
 public:
  explicit VectorSource(const StoredColumn& column)
      : reader_(column.AlpReader()), raw_(column.RowgroupPointer(0)) {
    assert(reader_ != nullptr || raw_ != nullptr);
  }

  const ColumnReader<double>* reader() const { return reader_; }

  /// Pointer to vector \p v's values, decoding into \p scratch if needed.
  const double* Vector(size_t v, double* scratch) const {
    if (raw_ != nullptr) return raw_ + v * kVectorSize;
    reader_->DecodeVector(v, scratch);
    return scratch;
  }

  /// Zone-map check; always true for uncompressed columns (no metadata).
  bool MayContain(size_t v, double lo, double hi) const {
    return reader_ == nullptr || reader_->VectorMayContain(v, lo, hi);
  }

  /// Late materialization: compacts vector \p v's survivors per \p bitmap
  /// into out[] in ascending index order. ALP columns go through
  /// pushdown::GatherVector (gather kernel, or decode + compact when
  /// dense); uncompressed columns compact straight from the raw rowgroup
  /// pointer.
  unsigned Gather(size_t v, unsigned len, const uint64_t* bitmap,
                  pushdown::EvalScratch* scratch, double* out,
                  pushdown::VectorCounters* counters) const {
    if (raw_ != nullptr) {
      return kernels::Active().compact64(raw_ + v * kVectorSize, len, bitmap,
                                         out);
    }
    return pushdown::GatherVector(*reader_, v, bitmap, scratch, out, counters);
  }

 private:
  const ColumnReader<double>* reader_;
  const double* raw_;
};

}  // namespace

QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              const Predicate& pred, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool,
                              const OpContext* ctx, FilterMode mode) {
  const StoredColumn* filter = table.Column(filter_column);
  const StoredColumn* a = table.Column(a_column);
  const StoredColumn* b = table.Column(b_column);
  assert(filter != nullptr && a != nullptr && b != nullptr);

  const VectorSource filter_source(*filter);
  const VectorSource a_source(*a);
  const VectorSource b_source(*b);

  // One translation serves every vector of the query: the integer bounds
  // depend only on (e, f), not on vector contents.
  const TranslatedPredicate tp(pred);

  const size_t rows = table.row_count();
  const size_t vectors = (rows + kVectorSize - 1) / kVectorSize;
  std::atomic<size_t> skipped{0};
  std::atomic<size_t> packed_eval{0};

  // Morsels of whole rowgroups keep vector decodes cache-friendly.
  QueryResult result = internal::RunMorsels(
      (rows + kRowgroupSize - 1) / kRowgroupSize, rows, pool, ctx,
      [&](size_t rg, double*, double* acc) {
        pushdown::VectorCounters counters;
        pushdown::EvalScratch scratch;
        uint64_t bitmap[kVectorSize / 64];
        alignas(64) double a_buf[kVectorSize];
        alignas(64) double b_buf[kVectorSize];
        const size_t first = rg * kRowgroupVectors;
        const size_t last = std::min(first + kRowgroupVectors, vectors);
        double sum = 0.0;
        for (size_t v = first; v < last; ++v) {
          // The closed [lo, hi] envelope check is a superset of the open
          // variants, so skipping on it is safe for any bound shape.
          if (!filter_source.MayContain(v, pred.lo, pred.hi)) {
            ++counters.skipped;  // No column decodes at all for this vector.
            continue;
          }
          const size_t base_row = v * kVectorSize;
          const unsigned len = static_cast<unsigned>(
              std::min<size_t>(kVectorSize, rows - base_row));
          // FILTER: selection bitmap over the filter column — on packed
          // lanes when possible, else from decoded values (the oracle).
          unsigned count = 0;
          if (mode == FilterMode::kAuto && filter_source.reader() != nullptr) {
            pushdown::SelectVector(*filter_source.reader(), v, tp, &scratch,
                                   bitmap, &count, &counters);
          } else {
            const double* f = filter_source.Vector(v, scratch.values);
            count = pushdown::SelectValues(f, len, pred, bitmap);
          }
          if (count == 0) continue;  // Nothing survives: a/b never touched.
          // PROJECT: late-materialize only the survivors of each projected
          // column, in ascending index order (the bit-identity contract).
          const unsigned na =
              a_source.Gather(v, len, bitmap, &scratch, a_buf, &counters);
          const unsigned nb =
              b_source.Gather(v, len, bitmap, &scratch, b_buf, &counters);
          assert(na == count && nb == count);
          (void)na;
          (void)nb;
          // AGGREGATE over the compacted survivor arrays: the striped
          // per-vector oracle (pushdown.h), fed survivor products.
          sum += pushdown::StripedDotAll(a_buf, b_buf, count);
        }
        *acc += sum;
        skipped.fetch_add(counters.skipped, std::memory_order_relaxed);
        packed_eval.fetch_add(counters.packed_eval, std::memory_order_relaxed);
        pushdown::NoteSkippedVectors(counters.skipped);
        return Status::Ok();
      });
  result.vectors_skipped = skipped.load();
  result.vectors_packed_eval = packed_eval.load();
  return result;
}

QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              double lo, double hi, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool) {
  return RunFilteredDotSum(table, filter_column, Predicate::Between(lo, hi),
                           a_column, b_column, pool);
}

}  // namespace alp::engine
