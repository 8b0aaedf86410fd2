// Tests for the Tectorwise-style engine: stored-column round trips under
// every storage scheme, SCAN/SUM correctness vs. uncompressed, morsel
// parallelism, and the compression query.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <vector>

#include "data/datasets.h"
#include "engine/operators.h"
#include "io/decoded_vector_cache.h"
#include "test_fixtures.h"

namespace alp::engine {
namespace {

std::vector<double> TestData(size_t n) {
  std::mt19937_64 rng(1);
  std::vector<double> data(n);
  for (auto& v : data) {
    v = static_cast<double>(static_cast<int64_t>(rng() % 100000)) / 100.0;
  }
  return data;
}

/// Produces rowgroup \p rg of \p column into \p out through the
/// executor's scan body.
Status DecodeRowgroup(const StoredColumn& column, size_t rg, double* out) {
  exec::Scratch scratch;
  double checksum = 0.0;
  return exec::ScanRowgroup(column.source(), rg, nullptr, &scratch, out, &checksum);
}

/// What the column's source lends for rowgroup \p rg.
exec::RowgroupLease LeaseOf(const StoredColumn& column, size_t rg,
                            AlignedBuffer<double>* buffer) {
  exec::RowgroupLease lease;
  EXPECT_TRUE(column.source().Lend(rg, nullptr, buffer, &lease).ok());
  return lease;
}

double ExactSum(const std::vector<double>& data) {
  // The engine sums per rowgroup then across threads; summing per rowgroup
  // here keeps float association comparable.
  double total = 0.0;
  for (size_t off = 0; off < data.size(); off += kRowgroupSize) {
    const size_t len = std::min<size_t>(kRowgroupSize, data.size() - off);
    double rg = 0.0;
    for (size_t i = 0; i < len; ++i) rg += data[off + i];
    total += rg;
  }
  return total;
}

TEST(StoredColumn, UncompressedBasics) {
  auto data = TestData(kRowgroupSize + 500);
  const auto column = StoredColumn::MakeUncompressed(data);
  EXPECT_EQ(column.scheme(), "Uncompressed");
  EXPECT_EQ(column.value_count(), data.size());
  EXPECT_EQ(column.source().rowgroup_count(), 2u);
  EXPECT_EQ(column.source().RowgroupLength(1), 500u);
  // Raw values are lent in place, with no zone map.
  AlignedBuffer<double> buffer;
  const exec::RowgroupLease lease = LeaseOf(column, 1, &buffer);
  EXPECT_EQ(lease.reader, nullptr);
  ASSERT_NE(lease.values, nullptr);
  EXPECT_EQ(lease.values[0], data[kRowgroupSize]);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(column.source().zone_map(), nullptr);

  std::vector<double> out(kRowgroupSize);
  ASSERT_TRUE(DecodeRowgroup(column, 0, out.data()).ok());
  EXPECT_EQ(out[123], data[123]);
}

TEST(StoredColumn, AlpRoundTrip) {
  const auto data = TestData(kRowgroupSize * 2 + 777);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  EXPECT_EQ(column.scheme(), "ALP");
  EXPECT_LT(column.compressed_bytes(), data.size() * sizeof(double));
  // ALP vectors are lent from the reader Open validated, with its zone map.
  AlignedBuffer<double> buffer;
  EXPECT_EQ(LeaseOf(column, 1, &buffer).reader, column.AlpReader());
  EXPECT_EQ(LeaseOf(column, 1, &buffer).first_vector, kRowgroupVectors);
  EXPECT_NE(column.source().zone_map(), nullptr);

  std::vector<double> out(kRowgroupSize);
  for (size_t rg = 0; rg < column.source().rowgroup_count(); ++rg) {
    ASSERT_TRUE(DecodeRowgroup(column, rg, out.data()).ok());
    const size_t off = rg * kRowgroupSize;
    for (unsigned i = 0; i < column.source().RowgroupLength(rg); ++i) {
      ASSERT_EQ(out[i], data[off + i]) << rg << ":" << i;
    }
  }
}

TEST(StoredColumn, CodecRoundTrip) {
  const auto data = TestData(kRowgroupSize + 123);
  const auto column =
      StoredColumn::MakeCodec(codecs::MakePatas(), data.data(), data.size());
  EXPECT_EQ(column.scheme(), "Patas");
  std::vector<double> out(kRowgroupSize);
  ASSERT_TRUE(DecodeRowgroup(column, 1, out.data()).ok());
  for (unsigned i = 0; i < column.source().RowgroupLength(1); ++i) {
    ASSERT_EQ(out[i], data[kRowgroupSize + i]);
  }
}

TEST(ThreadPool, RunsEveryWorker) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<int> hits(4, 0);
  pool.Run([&](unsigned w) { hits[w] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  // Re-usable across queries.
  pool.Run([&](unsigned w) { hits[w] = 2; });
  for (int h : hits) EXPECT_EQ(h, 2);
}

TEST(ThreadPool, StressManyRounds) {
  ThreadPool pool(4);
  std::atomic<uint64_t> counter{0};
  for (int round = 0; round < 500; ++round) {
    pool.Run([&](unsigned) { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(counter.load(), 500u * 4u);
}

TEST(ThreadPool, SingleWorker) {
  ThreadPool pool(1);
  int hits = 0;
  pool.Run([&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(Operators, SumMatchesUncompressed) {
  const auto data = TestData(kRowgroupSize * 3 + 999);
  const double expected = ExactSum(data);

  ThreadPool pool(2);
  const auto uncompressed = StoredColumn::MakeUncompressed(data);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto gorilla =
      StoredColumn::MakeCodec(codecs::MakeGorilla(), data.data(), data.size());

  for (const StoredColumn* column : {&uncompressed, &alp_col, &gorilla}) {
    const QueryResult result = RunSum(*column, pool);
    EXPECT_EQ(result.tuples, data.size()) << column->scheme();
    // ALP decoding is bit-exact so the sum matches to rounding order only;
    // per-rowgroup partials make it exactly comparable.
    EXPECT_NEAR(result.sum, expected, std::abs(expected) * 1e-12) << column->scheme();
  }
}

TEST(Operators, ScanTouchesEverything) {
  const auto data = TestData(kRowgroupSize * 2);
  ThreadPool pool(1);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  const QueryResult result = RunScan(column, pool);
  EXPECT_EQ(result.tuples, data.size());
  EXPECT_GT(result.cycles, 0u);
  // The checksum is the sum of one value per vector.
  double expected = 0.0;
  for (size_t v = 0; v < data.size(); v += kVectorSize) expected += data[v];
  EXPECT_NEAR(result.sum, expected, std::abs(expected) * 1e-12);
}

TEST(Operators, MultiThreadMatchesSingleThread) {
  const auto data = TestData(kRowgroupSize * 4);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const QueryResult r1 = RunSum(column, pool1);
  const QueryResult r4 = RunSum(column, pool4);
  // One partial per rowgroup, folded in rowgroup order: bitwise equal.
  EXPECT_EQ(BitsOf(r1.sum), BitsOf(r4.sum));
  EXPECT_EQ(r4.threads, 4u);
}

TEST(Operators, CompressionQueryReportsCycles) {
  const auto data = TestData(kRowgroupSize);
  const auto column = StoredColumn::MakeAlp(data.data(), data.size());
  const QueryResult result = RunCompression(column, data.data(), data.size());
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.sum, 0.0);  // Compressed byte count.
  EXPECT_EQ(result.tuples, data.size());
}

TEST(Operators, MetricsArithmetic) {
  QueryResult r;
  r.tuples = 1000;
  r.cycles = 500;
  r.threads = 2;
  EXPECT_DOUBLE_EQ(r.TuplesPerCyclePerCore(), 1.0);
  EXPECT_DOUBLE_EQ(r.CyclesPerTuple(), 1.0);
}

TEST(Operators, FilterSumMatchesReference) {
  // Sorted data so zone-map skipping actually triggers.
  std::vector<double> data(kRowgroupSize * 2);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i) * 0.5;
  const double lo = 1000.0;
  const double hi = 5000.0;
  double expected = 0.0;
  for (double v : data) expected += (v >= lo && v <= hi) ? v : 0.0;

  ThreadPool pool(2);
  const auto uncompressed = StoredColumn::MakeUncompressed(data);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto zstd_col =
      StoredColumn::MakeCodec(codecs::MakeZstd(), data.data(), data.size());

  const Predicate pred = Predicate::Between(lo, hi);
  const double contract = testutil::ContractSum(data, &pred);
  for (const StoredColumn* column : {&uncompressed, &alp_col, &zstd_col}) {
    const QueryResult r = RunFilterSum(*column, lo, hi, pool);
    EXPECT_NEAR(r.sum, expected, std::abs(expected) * 1e-12) << column->scheme();
    EXPECT_EQ(BitsOf(r.sum), BitsOf(contract)) << column->scheme();
  }
}

TEST(Operators, FilterPushdownSkipsVectors) {
  std::vector<double> data(kRowgroupSize * 2);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i) * 0.5;
  ThreadPool pool(4);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  // A range covering ~2% of the data: the vast majority of vectors skip.
  const QueryResult r = RunFilterSum(alp_col, 100.0, 2000.0, pool);
  EXPECT_GT(r.vectors_skipped, 150u);

  // Block-based storage cannot skip.
  const auto zstd_col =
      StoredColumn::MakeCodec(codecs::MakeZstd(), data.data(), data.size());
  const QueryResult z = RunFilterSum(zstd_col, 100.0, 2000.0, pool);
  EXPECT_EQ(z.vectors_skipped, 0u);
}

TEST(Operators, FilterEmptyRangeSkipsEverything) {
  std::vector<double> data(kRowgroupSize);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<double>(i);
  ThreadPool pool(4);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const QueryResult r = RunFilterSum(alp_col, 1e9, 2e9, pool);
  EXPECT_EQ(r.sum, 0.0);
  EXPECT_EQ(r.vectors_skipped, kRowgroupVectors);
}

TEST(Operators, MinMaxFromZoneMapsIsExact) {
  const auto data = TestData(kRowgroupSize * 2 + 555);
  double expected_min = data[0];
  double expected_max = data[0];
  for (double v : data) {
    expected_min = std::min(expected_min, v);
    expected_max = std::max(expected_max, v);
  }

  ThreadPool pool(2);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  double min = 0, max = 0;
  const QueryResult r = RunMinMax(alp_col, pool, &min, &max);
  EXPECT_EQ(min, expected_min);
  EXPECT_EQ(max, expected_max);
  // Answered entirely from zone maps: every vector was skipped.
  EXPECT_EQ(r.vectors_skipped, (data.size() + kVectorSize - 1) / kVectorSize);

  // And the scanning paths agree.
  const auto raw = StoredColumn::MakeUncompressed(data);
  const auto patas = StoredColumn::MakeCodec(codecs::MakePatas(), data.data(),
                                             data.size());
  for (const StoredColumn* column : {&raw, &patas}) {
    double m1 = 0, m2 = 0;
    RunMinMax(*column, pool, &m1, &m2);
    EXPECT_EQ(m1, expected_min) << column->scheme();
    EXPECT_EQ(m2, expected_max) << column->scheme();
  }
}

// Regression guard: a seekable column's source serves the zone map from the
// resident index region, so MIN/MAX folds it and never fetches a chunk.
TEST(Operators, MinMaxOnSeekableColumnReadsOnlyTheResidentZoneMap) {
  const auto data = TestData(kRowgroupSize * 2 + 555);
  const auto in_memory = StoredColumn::MakeAlp(data.data(), data.size());
  auto seekable = StoredColumn::MakeAlp(data.data(), data.size());
  io::DecodedVectorCache cache(1 << 20);
  ASSERT_TRUE(seekable.EnableSeekable(&cache).ok());
  // One source per column: the resident reader was replaced, not kept.
  EXPECT_EQ(seekable.AlpReader(), nullptr);

  ThreadPool pool(2);
  double min_a = 0, max_a = 0, min_b = 0, max_b = 0;
  const QueryResult a = RunMinMax(in_memory, pool, &min_a, &max_a);
  const QueryResult b = RunMinMax(seekable, pool, &min_b, &max_b);
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(BitsOf(min_b), BitsOf(min_a));
  EXPECT_EQ(BitsOf(max_b), BitsOf(max_a));
  EXPECT_EQ(b.vectors_skipped, a.vectors_skipped);
  // No chunk was fetched or decoded: the cache never saw a lookup.
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
}

TEST(Operators, MinMaxIsMuchCheaperOnAlp) {
  const auto data = TestData(kRowgroupSize * 4);
  ThreadPool pool(1);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto raw = StoredColumn::MakeUncompressed(data);
  double a, b;
  const QueryResult fast = RunMinMax(alp_col, pool, &a, &b);
  const QueryResult slow = RunMinMax(raw, pool, &a, &b);
  EXPECT_LT(fast.cycles * 10, slow.cycles);  // Zone maps are ~free.
}

TEST(Operators, WorksOnSurrogateDataset) {
  const auto data = data::Generate(*data::FindDataset("City-Temp"), kRowgroupSize * 2);
  ThreadPool pool(2);
  const auto alp_col = StoredColumn::MakeAlp(data.data(), data.size());
  const auto raw = StoredColumn::MakeUncompressed(data);
  const QueryResult a = RunSum(alp_col, pool);
  const QueryResult b = RunSum(raw, pool);
  EXPECT_NEAR(a.sum, b.sum, std::abs(b.sum) * 1e-9);
}

}  // namespace
}  // namespace alp::engine
