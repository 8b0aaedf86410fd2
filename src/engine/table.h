#ifndef ALP_ENGINE_TABLE_H_
#define ALP_ENGINE_TABLE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/column_store.h"
#include "engine/operators.h"

/// \file table.h
/// Multi-column tables and a Tectorwise-style two-column query. The paper's
/// end-to-end evaluation is single-column (SCAN/SUM); this extends the
/// engine to the multi-column shape real scans have, where push-down on one
/// column saves the decoding work of *every* projected column: a vector
/// skipped by the filter column's zone map is never decoded in any column.

namespace alp::engine {

/// A named collection of equal-length stored columns.
class Table {
 public:
  /// Adds a column; all columns must have the same value count.
  void AddColumn(std::string name, StoredColumn column) {
    columns_.emplace_back(std::move(name), std::move(column));
  }

  /// Column by name; nullptr if absent.
  const StoredColumn* Column(std::string_view name) const {
    for (const auto& [n, c] : columns_) {
      if (n == name) return &c;
    }
    return nullptr;
  }

  size_t column_count() const { return columns_.size(); }
  size_t row_count() const {
    return columns_.empty() ? 0 : columns_.front().second.value_count();
  }

 private:
  std::vector<std::pair<std::string, StoredColumn>> columns_;
};

/// SELECT SUM(a * b) WHERE filter matches \p pred, vector-at-a-time with
/// selection vectors and late materialization.
///
/// The filter column's zone maps prune vectors before *any* column is
/// decoded, and a rowgroup with no surviving vector is never read from any
/// column. Under FilterMode::kAuto an ALP filter column is then evaluated
/// directly on its FFOR-packed lanes (alp/pushdown.h) into a 1024-bit
/// selection bitmap — the filter column itself is never decoded — and only
/// the surviving lanes of `a` and `b` are materialized, via the gather
/// kernel when those columns are FFOR-packed. A vector with zero survivors
/// costs one packed compare and no decode in any column, and `a` and `b`
/// are read (fetched or decompressed) only for a rowgroup in which some
/// vector selects a row. Results are bit-identical to the decode-then-
/// filter loop (survivor products are accumulated in ascending index
/// order; see pushdown.h for the proof).
/// Columns may use any storage (exec::DotSumRowgroup, alp/executor.h), with
/// the same bits on every one.
/// An unknown column name returns kNotFound, and columns of different
/// lengths kInvalidArgument.
/// `vectors_skipped` counts vectors never decoded in any column;
/// `vectors_packed_eval` counts filter vectors evaluated on packed lanes.
/// Runs on the engine's morsel loop (one partial per rowgroup, folded in
/// rowgroup order, so the sum does not depend on the thread count) and
/// honours \p ctx and the engine.rowgroup fault site per morsel like the
/// single-column operators (operators.h).
QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              const Predicate& pred, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool,
                              const OpContext* ctx = nullptr,
                              FilterMode mode = FilterMode::kAuto);

/// Closed-range convenience: pred = Predicate::Between(lo, hi).
QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              double lo, double hi, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool);

}  // namespace alp::engine

#endif  // ALP_ENGINE_TABLE_H_
