// Schedule- and route-independence of every sum: the same query over the
// same data returns the same bits at 1/2/4/8 threads, on every repeat (so
// whichever worker claims whichever morsel), in both filter modes, and
// through every route — the in-memory engine, the out-of-core seekable
// reader behind a shared chunk cache (cold, warm and capacity 0, over
// memory, mmap and pread sources), and the server — and those bits are the
// SurvivorSum contract computed straight from the raw values
// (tests/test_fixtures.h). All three routes run the one executor
// (alp/executor.h) over their column's VectorSource. MIN/MAX ties resolve
// the same way on every storage kind and thread count. The data mixes ALP
// rowgroups with exceptions and ALP_rd rowgroups, so the packed path, the
// dense and sparse gathers, the full-inside fast path and the
// decode-then-filter fallback all contribute to one sum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "alp/executor.h"
#include "codecs/codec.h"
#include "engine/operators.h"
#include "engine/table.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "io/seekable_reader.h"
#include "server/server.h"
#include "test_fixtures.h"
#include "util/bits.h"
#include "util/file_io.h"

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

/// Every seekable read of \p reader, concatenated: the full decode, each
/// rowgroup, each vector, a scan, and each predicate's filtered sum folded
/// in rowgroup order (the server's fold).
std::vector<double> SeekableAnswers(const io::SeekableReader<double>& reader) {
  const size_t n = reader.value_count();
  std::vector<double> answers(n);
  EXPECT_TRUE(reader.TryDecodeAll(answers.data()).ok());
  std::vector<double> buffer(kRowgroupSize);
  // Each rowgroup through the executor's scan body; the source borrows
  // the reader.
  const io::SeekableSource source({std::shared_ptr<const void>(), &reader});
  exec::Scratch scratch;
  for (size_t rg = 0; rg < reader.rowgroup_count(); ++rg) {
    double checksum = 0.0;
    EXPECT_TRUE(
        exec::ScanRowgroup(source, rg, nullptr, &scratch, buffer.data(), &checksum)
            .ok());
    answers.insert(answers.end(), buffer.begin(),
                   buffer.begin() + reader.RowgroupValueCount(rg));
  }
  for (size_t v = 0; v < reader.vector_count(); ++v) {
    EXPECT_TRUE(reader.TryDecodeVector(v, buffer.data()).ok());
    answers.insert(answers.end(), buffer.begin(),
                   buffer.begin() + reader.VectorLength(v));
  }
  EXPECT_TRUE(reader
                  .Scan([&](size_t, const double* values, unsigned len) {
                    answers.insert(answers.end(), values, values + len);
                    return Status::Ok();
                  })
                  .ok());
  for (const Predicate& pred : kPredicates) {
    const TranslatedPredicate tp(pred);
    double sum = 0.0;
    pushdown::VectorCounters counters;
    for (size_t rg = 0; rg < reader.rowgroup_count(); ++rg) {
      double partial = 0.0;
      EXPECT_TRUE(reader.FilterSumRowgroup(rg, tp, &partial, &counters).ok());
      sum += partial;
    }
    answers.push_back(sum);
  }
  return answers;
}

TEST_F(Determinism, SeekableAnswersIgnoreCacheStateOnEverySource) {
  const std::vector<uint8_t> bytes = CompressColumn(data_->data(), data_->size());
  const std::string path = testing::TempDir() + "/determinism_cache_state.alp";
  ASSERT_TRUE(WriteFileBytes(path, bytes.data(), bytes.size()));
  auto mmap = io::MmapSource::Open(path);
  auto pread = io::PreadSource::Open(path);
  ASSERT_TRUE(mmap.ok() && pread.ok());
  const std::shared_ptr<io::RandomAccessSource> sources[] = {
      std::make_shared<io::MemorySource>(bytes.data(), bytes.size()), *mmap,
      *pread};

  std::vector<double> want;
  for (const auto& source : sources) {
    SCOPED_TRACE(source->name());
    io::DecodedVectorCache off(0);
    io::DecodedVectorCache cache(64 << 20);  // Holds the whole column.
    io::SeekableReaderOptions uncached;
    uncached.cache = &off;
    io::SeekableReaderOptions cached;
    cached.cache = &cache;
    auto cold_reader = io::SeekableReader<double>::Open(source, uncached);
    auto warm_reader = io::SeekableReader<double>::Open(source, cached);
    ASSERT_TRUE(cold_reader.ok() && warm_reader.ok());

    const std::vector<double> uncached_answers = SeekableAnswers(**cold_reader);
    const std::vector<double> cold = SeekableAnswers(**warm_reader);
    const uint64_t hits_before_warm = cache.TotalStats().hits;
    const std::vector<double> warm = SeekableAnswers(**warm_reader);
    EXPECT_GT(cache.TotalStats().hits, hits_before_warm);
    EXPECT_EQ(cache.TotalStats().misses, (*warm_reader)->rowgroup_count());

    if (want.empty()) {
      want = uncached_answers;
      ASSERT_EQ(std::memcmp(want.data(), data_->data(),
                            data_->size() * sizeof(double)),
                0);
      for (size_t p = 0; p < std::size(kPredicates); ++p) {
        EXPECT_EQ(BitsOf(want[want.size() - std::size(kPredicates) + p]),
                  BitsOf(testutil::ContractSum(*data_, &kPredicates[p])));
      }
    }
    for (const std::vector<double>* got : {&uncached_answers, &cold, &warm}) {
      ASSERT_EQ(got->size(), want.size());
      EXPECT_EQ(std::memcmp(got->data(), want.data(), want.size() * sizeof(double)),
                0);
    }
  }
  std::remove(path.c_str());
}

TEST_F(Determinism, DotSumEveryThreadCountAndMode) {
  const size_t n = data_->size();
  const std::vector<double> a = FiniteDecimals(84, n);
  engine::Table table;
  table.AddColumn("f", StoredColumn::MakeAlp(data_->data(), n));
  table.AddColumn("a", StoredColumn::MakeAlp(a.data(), n));
  table.AddColumn("b", StoredColumn::MakeUncompressed(*data_));
  // The same query with the ALP columns read out of core.
  engine::Table seekable;
  StoredColumn f = StoredColumn::MakeAlp(data_->data(), n);
  StoredColumn sa = StoredColumn::MakeAlp(a.data(), n);
  ASSERT_TRUE(f.EnableSeekable(cache_, "dot-f").ok());
  ASSERT_TRUE(sa.EnableSeekable(cache_, "dot-a").ok());
  seekable.AddColumn("f", std::move(f));
  seekable.AddColumn("a", std::move(sa));
  seekable.AddColumn("b", StoredColumn::MakeUncompressed(*data_));
  for (const Predicate& pred : kPredicates) {
    uint64_t want = 0;
    bool first = true;
    for (const unsigned threads : kThreadCounts) {
      ThreadPool pool(threads);
      for (int repeat = 0; repeat < kRepeats / 4; ++repeat) {
        for (const FilterMode mode : {FilterMode::kAuto, FilterMode::kDecodeThenFilter}) {
          for (const engine::Table* t : {&table, &seekable}) {
            const QueryResult r =
                engine::RunFilteredDotSum(*t, "f", pred, "a", "b", pool, nullptr, mode);
            ASSERT_TRUE(r.status.ok());
            if (first) want = BitsOf(r.sum), first = false;
            ASSERT_EQ(BitsOf(r.sum), want)
                << threads << " threads, repeat " << repeat << ", "
                << (t == &seekable ? "seekable" : "in-memory");
          }
        }
      }
    }
  }
}

TEST_F(Determinism, MinMaxFoldsInRowgroupOrderOnEveryStorage) {
  // +0.0 fills rowgroup 0 and -0.0 rowgroups 1-15: every rowgroup ties on
  // MIN and on MAX, and the answer must be the value that comes first in
  // row order (+0.0) whichever worker finishes first.
  std::vector<double> zeros(16 * kRowgroupSize, -0.0);
  std::fill(zeros.begin(), zeros.begin() + kRowgroupSize, 0.0);
  const StoredColumn alp = StoredColumn::MakeAlp(zeros.data(), zeros.size());
  const StoredColumn raw = StoredColumn::MakeUncompressed(zeros);
  const StoredColumn zstd =
      StoredColumn::MakeCodec(codecs::MakeZstd(), zeros.data(), zeros.size());
  ThreadPool one(1);
  double want_min = 1.0, want_max = 1.0;
  ASSERT_TRUE(engine::RunMinMax(alp, one, &want_min, &want_max).status.ok());
  EXPECT_EQ(BitsOf(want_min), BitsOf(0.0));
  EXPECT_EQ(BitsOf(want_max), BitsOf(0.0));
  for (const unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < kRepeats / 4; ++repeat) {
      for (const StoredColumn* column : {&raw, &zstd, &alp}) {
        double min = 1.0, max = 1.0;
        ASSERT_TRUE(engine::RunMinMax(*column, pool, &min, &max).status.ok());
        ASSERT_EQ(BitsOf(min), BitsOf(want_min))
            << threads << " threads, repeat " << repeat << ", " << column->scheme();
        ASSERT_EQ(BitsOf(max), BitsOf(want_max))
            << threads << " threads, repeat " << repeat << ", " << column->scheme();
      }
    }
  }
}

}  // namespace
}  // namespace alp
