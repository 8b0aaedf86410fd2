#include "engine/table.h"

#include <string>

#include "engine/morsel.h"

namespace alp::engine {

QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              const Predicate& pred, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool,
                              const OpContext* ctx, FilterMode mode) {
  const StoredColumn* filter = table.Column(filter_column);
  const StoredColumn* a = table.Column(a_column);
  const StoredColumn* b = table.Column(b_column);
  if (filter == nullptr || a == nullptr || b == nullptr) {
    const std::string_view missing =
        filter == nullptr ? filter_column : a == nullptr ? a_column : b_column;
    return QueryResult{Status::NotFound("unknown column: " + std::string(missing))};
  }
  // a and b are read at the filter column's row positions.
  if (a->value_count() != filter->value_count() ||
      b->value_count() != filter->value_count()) {
    return QueryResult{Status::InvalidArgument("columns differ in length")};
  }

  // One translation serves every vector of the query: the integer bounds
  // depend only on (e, f), not on vector contents.
  const TranslatedPredicate tp(pred);
  // Morsels of whole rowgroups keep vector decodes cache-friendly.
  return internal::RunMorsels(
      filter->source(), pool, ctx,
      [&](size_t rg, exec::Scratch* scratch, double* acc) {
        return exec::DotSumRowgroup(filter->source(), a->source(), b->source(), rg,
                                    tp, mode, ctx, scratch, acc);
      });
}

QueryResult RunFilteredDotSum(const Table& table, std::string_view filter_column,
                              double lo, double hi, std::string_view a_column,
                              std::string_view b_column, ThreadPool& pool) {
  return RunFilteredDotSum(table, filter_column, Predicate::Between(lo, hi),
                           a_column, b_column, pool);
}

}  // namespace alp::engine
