// Tests for the multi-column Table and the two-column filtered aggregate:
// correctness against a scalar reference, zone-map pruning across columns,
// the same bits over every storage kind (ALP in memory and out of core,
// uncompressed, block codec), and cancellation / fault reporting.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <tuple>
#include <vector>

#include "codecs/codec.h"
#include "engine/table.h"
#include "io/decoded_vector_cache.h"
#include "util/bits.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"

namespace alp::engine {
namespace {

struct TestTable {
  std::vector<double> time;   // Sorted (zone maps discriminate).
  std::vector<double> price;
  std::vector<double> qty;
};

TestTable MakeData(size_t n) {
  std::mt19937_64 rng(5);
  TestTable t;
  t.time.resize(n);
  t.price.resize(n);
  t.qty.resize(n);
  for (size_t i = 0; i < n; ++i) {
    t.time[i] = static_cast<double>(i) / 10.0;  // Monotone timestamps.
    t.price[i] = static_cast<double>(rng() % 100000) / 100.0;
    t.qty[i] = static_cast<double>(1 + rng() % 100);
  }
  return t;
}

double Reference(const TestTable& t, double lo, double hi) {
  double sum = 0.0;
  for (size_t i = 0; i < t.time.size(); ++i) {
    if (t.time[i] >= lo && t.time[i] <= hi) sum += t.price[i] * t.qty[i];
  }
  return sum;
}

TEST(Table, ColumnsByName) {
  const auto data = MakeData(kVectorSize);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeUncompressed(data.price));
  EXPECT_EQ(table.column_count(), 2u);
  EXPECT_EQ(table.row_count(), kVectorSize);
  EXPECT_NE(table.Column("time"), nullptr);
  EXPECT_EQ(table.Column("time")->scheme(), "ALP");
  EXPECT_EQ(table.Column("missing"), nullptr);
}

TEST(Table, FilteredDotSumRejectsUnknownColumns) {
  const auto data = MakeData(kVectorSize);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeUncompressed(data.price));
  ThreadPool pool(1);
  for (const auto& [f, a, b] : {std::tuple{"nope", "price", "price"},
                                std::tuple{"time", "nope", "price"},
                                std::tuple{"time", "price", "nope"}}) {
    const QueryResult r = RunFilteredDotSum(table, f, Predicate::Between(0.0, 1e9), a,
                                            b, pool);
    EXPECT_EQ(r.status.code(), StatusCode::kNotFound) << f << a << b;
  }
}

TEST(Table, FilteredDotSumRejectsColumnsOfDifferentLengths) {
  // a and b are read at the filter column's row positions, so a shorter
  // column would be read past its end.
  const auto data = MakeData(kVectorSize * 4);
  const std::vector<double> shorter(data.price.begin(), data.price.begin() + 1000);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeUncompressed(data.price));
  table.AddColumn("short", StoredColumn::MakeUncompressed(shorter));
  ThreadPool pool(1);
  const Predicate pred = Predicate::Between(0.0, 1e9);
  EXPECT_EQ(RunFilteredDotSum(table, "time", pred, "price", "short", pool).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunFilteredDotSum(table, "time", pred, "short", "price", pool).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(Table, FilteredDotSumMatchesReference) {
  const auto data = MakeData(kRowgroupSize * 2 + 777);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeAlp(data.price.data(), data.price.size()));
  table.AddColumn("qty", StoredColumn::MakeAlp(data.qty.data(), data.qty.size()));

  ThreadPool pool(2);
  const double lo = 1000.0;
  const double hi = 5000.0;
  const QueryResult r = RunFilteredDotSum(table, "time", lo, hi, "price", "qty", pool);
  const double expected = Reference(data, lo, hi);
  EXPECT_NEAR(r.sum, expected, std::abs(expected) * 1e-9);
}

TEST(Table, PushdownPrunesAllColumns) {
  const auto data = MakeData(kRowgroupSize * 2);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeAlp(data.price.data(), data.price.size()));
  table.AddColumn("qty", StoredColumn::MakeAlp(data.qty.data(), data.qty.size()));

  ThreadPool pool(4);
  // Narrow time window: ~2% of rows qualify -> most vectors pruned.
  const QueryResult r =
      RunFilteredDotSum(table, "time", 100.0, 500.0, "price", "qty", pool);
  const size_t vectors = (table.row_count() + kVectorSize - 1) / kVectorSize;
  EXPECT_GT(r.vectors_skipped, vectors * 9 / 10);
  EXPECT_NEAR(r.sum, Reference(data, 100.0, 500.0), std::abs(r.sum) * 1e-9 + 1e-9);
}

TEST(Table, EmptyRangeSumsToZero) {
  const auto data = MakeData(kVectorSize * 3);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeUncompressed(data.price));
  table.AddColumn("qty", StoredColumn::MakeUncompressed(data.qty));
  ThreadPool pool(2);
  const QueryResult r =
      RunFilteredDotSum(table, "time", 1e9, 2e9, "price", "qty", pool);
  EXPECT_EQ(r.sum, 0.0);
}

TEST(Table, MixedStorageAgrees) {
  const auto data = MakeData(kRowgroupSize + 123);
  ThreadPool pool(2);
  const double lo = 50.0;
  const double hi = 4000.0;

  Table alp_table;
  alp_table.AddColumn("t", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  alp_table.AddColumn("p", StoredColumn::MakeAlp(data.price.data(), data.price.size()));
  alp_table.AddColumn("q", StoredColumn::MakeAlp(data.qty.data(), data.qty.size()));

  Table raw_table;
  raw_table.AddColumn("t", StoredColumn::MakeUncompressed(data.time));
  raw_table.AddColumn("p", StoredColumn::MakeUncompressed(data.price));
  raw_table.AddColumn("q", StoredColumn::MakeUncompressed(data.qty));

  // The ALP columns read out of core, and a block codec (whole rowgroups
  // decompressed before any vector is read).
  io::DecodedVectorCache cache(1 << 20);
  Table seekable_table;
  Table zstd_table;
  for (const auto& [name, values] :
       {std::pair{"t", &data.time}, std::pair{"p", &data.price},
        std::pair{"q", &data.qty}}) {
    StoredColumn column = StoredColumn::MakeAlp(values->data(), values->size());
    ASSERT_TRUE(column.EnableSeekable(&cache).ok());
    seekable_table.AddColumn(name, std::move(column));
    zstd_table.AddColumn(name, StoredColumn::MakeCodec(codecs::MakeZstd(),
                                                       values->data(), values->size()));
  }

  const QueryResult a = RunFilteredDotSum(alp_table, "t", lo, hi, "p", "q", pool);
  const QueryResult b = RunFilteredDotSum(raw_table, "t", lo, hi, "p", "q", pool);
  // Same survivors, same per-vector striped sums, same rowgroup fold.
  EXPECT_EQ(BitsOf(a.sum), BitsOf(b.sum));
  // Uncompressed filter column has no zone maps: nothing skipped.
  EXPECT_EQ(b.vectors_skipped, 0u);
  for (const Table* table : {&seekable_table, &zstd_table}) {
    const QueryResult r = RunFilteredDotSum(*table, "t", lo, hi, "p", "q", pool);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(BitsOf(r.sum), BitsOf(a.sum));
  }
}

TEST(Table, FilteredDotSumHonoursCancellationAndFaults) {
  const auto data = MakeData(kRowgroupSize * 4);
  Table table;
  table.AddColumn("time", StoredColumn::MakeAlp(data.time.data(), data.time.size()));
  table.AddColumn("price", StoredColumn::MakeAlp(data.price.data(), data.price.size()));
  table.AddColumn("qty", StoredColumn::MakeUncompressed(data.qty));
  const Predicate pred = Predicate::Between(0.0, 1e9);

  CancelToken token;
  token.Cancel();
  OpContext ctx;
  ctx.cancel = &token;
  for (unsigned threads : {1u, 3u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(RunFilteredDotSum(table, "time", pred, "price", "qty", pool, &ctx)
                  .status.code(),
              StatusCode::kCancelled);
  }

  // A deterministic fault at every morsel: the lowest rowgroup's Status,
  // whatever the worker count.
  fault::DisarmAll();
  fault::FaultSpec spec;
  spec.code = StatusCode::kIo;
  spec.message = "injected rowgroup fault";
  fault::Arm("engine.rowgroup", spec);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const QueryResult r =
        RunFilteredDotSum(table, "time", pred, "price", "qty", pool);
    EXPECT_EQ(r.status.code(), StatusCode::kIo) << threads << " threads";
    EXPECT_EQ(r.status.ToString(), Status::Io("injected rowgroup fault").ToString());
  }
  fault::DisarmAll();
  fault::SetEnabled(false);

  ThreadPool pool(2);
  EXPECT_TRUE(
      RunFilteredDotSum(table, "time", pred, "price", "qty", pool).status.ok());
}

}  // namespace
}  // namespace alp::engine
