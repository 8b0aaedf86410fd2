// Schedule- and route-independence of every sum: the same query over the
// same data returns the same bits at 1/2/4/8 threads, on every repeat (so
// whichever worker claims whichever morsel), in both filter modes, and
// through every route — the in-memory engine, the out-of-core seekable
// reader behind a shared decoded-vector cache (cold and warm), and the
// server — and those bits are the SurvivorSum contract computed straight
// from the raw values (tests/test_fixtures.h). The data mixes ALP
// rowgroups with exceptions and ALP_rd rowgroups, so the packed path, the
// dense and sparse gathers, the full-inside fast path and the
// decode-then-filter fallback all contribute to one sum.

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "engine/operators.h"
#include "engine/table.h"
#include "io/decoded_vector_cache.h"
#include "server/server.h"
#include "test_fixtures.h"
#include "util/bits.h"

namespace alp {
namespace {

using engine::FilterMode;
using engine::QueryResult;
using engine::StoredColumn;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};
constexpr int kRepeats = 20;

/// Two-decimal values with finite exceptions (thirds, subnormals, -0.0,
/// large magnitudes): the sums stay finite, so every bit of them is
/// meaningful. (A NaN sum is NaN on every route, but x86 picks a NaN
/// operand's payload by operand order, which the compiler may commute.)
std::vector<double> FiniteDecimals(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<double> data(n);
  const double specials[] = {1.0 / 3.0, -2.0 / 3.0, -0.0, 4.9e-324, 1e15 + 0.5,
                             -7.3e12};
  for (auto& v : data) {
    v = rng() % 16 == 0
            ? specials[rng() % std::size(specials)]
            : static_cast<double>(static_cast<int64_t>(rng() % 1000000) - 500000) / 100.0;
  }
  return data;
}

/// Three decimal rowgroups (with exceptions), two ALP_rd rowgroups, then a
/// decimal rowgroup and a partial tail rowgroup.
std::vector<double> MixedColumn() {
  std::vector<double> data = FiniteDecimals(81, kRowgroupSize * 3);
  const std::vector<double> rd = testutil::HighPrecisionData(82, kRowgroupSize * 2);
  data.insert(data.end(), rd.begin(), rd.end());
  const std::vector<double> tail = FiniteDecimals(83, kRowgroupSize + 4321);
  data.insert(data.end(), tail.begin(), tail.end());
  return data;
}

class Determinism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new std::vector<double>(MixedColumn());
    in_memory_ = new StoredColumn(StoredColumn::MakeAlp(data_->data(), data_->size()));
    cache_ = new io::DecodedVectorCache(8 << 20);
    auto* seekable =
        new StoredColumn(StoredColumn::MakeAlp(data_->data(), data_->size()));
    seekable_ = seekable;
    ASSERT_TRUE(seekable->EnableSeekable(cache_, "determinism").ok());
  }
  static void TearDownTestSuite() {
    delete seekable_;
    delete cache_;
    delete in_memory_;
    delete data_;
  }

  static std::vector<double>* data_;
  static const StoredColumn* in_memory_;
  static io::DecodedVectorCache* cache_;
  static const StoredColumn* seekable_;
};

std::vector<double>* Determinism::data_ = nullptr;
const StoredColumn* Determinism::in_memory_ = nullptr;
io::DecodedVectorCache* Determinism::cache_ = nullptr;
const StoredColumn* Determinism::seekable_ = nullptr;

/// Closed ranges (the server's filter shape): a sparse window, a dense
/// one, and one covering every finite value.
const Predicate kPredicates[] = {Predicate::Between(-250.0, -240.0),
                                 Predicate::Between(-4000.0, 4500.0),
                                 Predicate::Between(-1e300, 1e300)};

TEST_F(Determinism, CorpusCoversEveryPath) {
  const ColumnReader<double>& reader = *in_memory_->AlpReader();
  size_t rd = 0, with_exceptions = 0;
  for (size_t v = 0; v < reader.vector_count(); ++v) {
    if (reader.VectorScheme(v) == Scheme::kAlpRd) ++rd;
    else if (reader.VectorExceptionCount(v) > 0) ++with_exceptions;
  }
  EXPECT_GT(rd, 0u);
  EXPECT_GT(with_exceptions, 0u);
  ThreadPool pool(2);
  for (const Predicate& pred : kPredicates) {
    const QueryResult r = engine::RunFilterSum(*in_memory_, pred, pool);
    EXPECT_GT(r.vectors_packed_eval, 0u);
  }
}

TEST_F(Determinism, FilterSumEveryThreadCountModeAndRoute) {
  for (const Predicate& pred : kPredicates) {
    SCOPED_TRACE("[" + std::to_string(pred.lo) + ", " + std::to_string(pred.hi) + "]");
    const uint64_t want = BitsOf(testutil::ContractSum(*data_, &pred));
    for (const unsigned threads : kThreadCounts) {
      ThreadPool pool(threads);
      for (int repeat = 0; repeat < kRepeats; ++repeat) {
        for (const FilterMode mode : {FilterMode::kAuto, FilterMode::kDecodeThenFilter}) {
          for (const StoredColumn* column :
               {in_memory_, seekable_}) {
            const QueryResult r =
                engine::RunFilterSum(*column, pred, pool, nullptr, mode);
            ASSERT_TRUE(r.status.ok());
            ASSERT_EQ(BitsOf(r.sum), want)
                << threads << " threads, repeat " << repeat << ", mode "
                << static_cast<int>(mode) << ", "
                << (column == seekable_ ? "seekable" : "in-memory");
          }
        }
      }
    }
  }
}

TEST_F(Determinism, SumEveryThreadCountAndRoute) {
  const uint64_t want = BitsOf(testutil::ContractSum(*data_));
  const StoredColumn raw = StoredColumn::MakeUncompressed(*data_);
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      for (const StoredColumn* column :
           {in_memory_, seekable_, &raw}) {
        const QueryResult r = engine::RunSum(*column, pool);
        ASSERT_TRUE(r.status.ok());
        ASSERT_EQ(BitsOf(r.sum), want) << threads << " threads, repeat " << repeat
                                       << ", " << column->scheme();
      }
    }
  }
}

TEST_F(Determinism, ServerAggregatesMatchTheEngineBits) {
  for (const unsigned workers : kThreadCounts) {
    server::ServerConfig config;
    config.workers = workers;
    config.cache_bytes = size_t{4} << 20;
    server::Server server(config);
    ASSERT_TRUE(server.AddColumn("col", data_->data(), data_->size()).ok());
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      server::Request unfiltered;
      unfiltered.column = "col";
      unfiltered.query_class = server::QueryClass::kAggregate;
      const server::Response u = server.Execute(std::move(unfiltered));
      ASSERT_TRUE(u.status.ok());
      ASSERT_EQ(BitsOf(u.sum), BitsOf(testutil::ContractSum(*data_)))
          << workers << " workers, repeat " << repeat;
      for (const Predicate& pred : kPredicates) {
        server::Request filtered;
        filtered.column = "col";
        filtered.query_class = server::QueryClass::kAggregate;
        filtered.has_filter = true;
        filtered.filter_lo = pred.lo;
        filtered.filter_hi = pred.hi;
        const server::Response f = server.Execute(std::move(filtered));
        ASSERT_TRUE(f.status.ok());
        ASSERT_EQ(BitsOf(f.sum), BitsOf(testutil::ContractSum(*data_, &pred)))
            << workers << " workers, repeat " << repeat;
      }
    }
  }
}

TEST_F(Determinism, DotSumEveryThreadCountAndMode) {
  const size_t n = data_->size();
  const std::vector<double> a = FiniteDecimals(84, n);
  engine::Table table;
  table.AddColumn("f", StoredColumn::MakeAlp(data_->data(), n));
  table.AddColumn("a", StoredColumn::MakeAlp(a.data(), n));
  table.AddColumn("b", StoredColumn::MakeUncompressed(*data_));
  for (const Predicate& pred : kPredicates) {
    uint64_t want = 0;
    bool first = true;
    for (const unsigned threads : kThreadCounts) {
      ThreadPool pool(threads);
      for (int repeat = 0; repeat < kRepeats / 4; ++repeat) {
        for (const FilterMode mode : {FilterMode::kAuto, FilterMode::kDecodeThenFilter}) {
          const QueryResult r =
              engine::RunFilteredDotSum(table, "f", pred, "a", "b", pool, nullptr, mode);
          ASSERT_TRUE(r.status.ok());
          if (first) want = BitsOf(r.sum), first = false;
          ASSERT_EQ(BitsOf(r.sum), want) << threads << " threads, repeat " << repeat;
        }
      }
    }
  }
}

}  // namespace
}  // namespace alp
