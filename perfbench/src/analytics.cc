// Workload `analytics`: the in-memory read path. One client runs a closed
// loop of queries over an ALP engine::Table on an nproc-thread pool; no
// program cache is involved.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "common.h"
#include "engine/operators.h"
#include "engine/table.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using alp::engine::QueryResult;

/// Table columns; `lat` is POI-lat, which compresses with ALP_rd, so the
/// packed filter path falls back to decode-then-filter on it.
constexpr struct {
  const char* column;
  const char* dataset;
} kColumns[] = {{"temp", "City-Temp"}, {"price", "Stocks-USA"},
                {"gov", "Gov/26"}, {"lat", "POI-lat"}};
constexpr size_t kTemp = 0, kPrice = 1, kGov = 2, kLat = 3;

enum class Kind { kSum, kFilterSum, kMinMax, kDotSum };

struct Query {
  const char* name;
  Kind kind;
  size_t column;        ///< Scanned / filter column.
  alp::Predicate pred;  ///< Filter kinds only.
  // One-thread oracle over the raw values.
  double want = 0.0;
  double want_min = 0.0, want_max = 0.0;
  double abs_sum = 0.0;  ///< Sum of |term|, scales the tolerance.
  size_t survivors = 0;
  size_t covered = 0;  ///< Column values the query reads.
};

/// What the measured loop needs. The raw columns are dropped once the
/// oracle is filled, so they do not count in peak_rss_mb.
struct Setup {
  alp::engine::Table table;
  std::vector<Query> queries;
  double compressed_bytes = 0.0;
};

double QuantileOf(std::vector<double> values, double q) {
  const size_t k = std::min(values.size() - 1, static_cast<size_t>(q * values.size()));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

void FillOracle(const std::vector<std::vector<double>>& raw, Query* q) {
  const std::vector<double>& x = raw[q->column];
  const size_t n = x.size();
  switch (q->kind) {
    case Kind::kSum:
      for (double v : x) q->want += v, q->abs_sum += std::fabs(v);
      q->covered = n;
      break;
    case Kind::kFilterSum:
      for (double v : x) {
        if (q->pred.Matches(v)) q->want += v, q->abs_sum += std::fabs(v), ++q->survivors;
      }
      q->covered = n;
      break;
    case Kind::kMinMax:
      q->want_min = std::numeric_limits<double>::infinity();
      q->want_max = -q->want_min;
      for (double v : x) {
        if (std::isnan(v)) continue;
        q->want_min = std::min(q->want_min, v);
        q->want_max = std::max(q->want_max, v);
      }
      q->covered = n;
      break;
    case Kind::kDotSum: {
      const std::vector<double>& a = raw[kPrice];
      const std::vector<double>& b = raw[kGov];
      for (size_t i = 0; i < n; ++i) {
        if (!q->pred.Matches(x[i])) continue;
        q->want += a[i] * b[i];
        q->abs_sum += std::fabs(a[i] * b[i]);
        ++q->survivors;
      }
      q->covered = 3 * n;
      break;
    }
  }
}

Setup MakeSetup(size_t n, uint64_t seed) {
  Setup s;
  std::vector<std::vector<double>> raw;
  uint64_t k = 0;
  for (const auto& c : kColumns) {
    raw.push_back(GenerateColumn(c.dataset, n, seed * 131 + 7 + k++));
    auto column = alp::engine::StoredColumn::MakeAlp(raw.back().data(), n);
    s.compressed_bytes += column.compressed_bytes();
    s.table.AddColumn(c.column, std::move(column));
  }
  // Predicate bounds are data quantiles, so selectivities stay fixed
  // whatever the seed.
  const double t_lo = QuantileOf(raw[kTemp], 0.500);
  const double t_hi = QuantileOf(raw[kTemp], 0.502);
  const double lat_lo = QuantileOf(raw[kLat], 0.02);
  const double lat_hi = QuantileOf(raw[kLat], 0.98);
  const double p_lo = QuantileOf(raw[kPrice], 0.0);
  const double p_hi = QuantileOf(raw[kPrice], 1.0);
  const double d_lo = QuantileOf(raw[kTemp], 0.25);
  const double d_hi = QuantileOf(raw[kTemp], 0.75);
  s.queries = {
      {"sum", Kind::kSum, kTemp, {}},
      {"filter_sparse", Kind::kFilterSum, kTemp, alp::Predicate::Between(t_lo, t_hi)},
      {"filter_dense_rd", Kind::kFilterSum, kLat,
       alp::Predicate::Between(lat_lo, lat_hi)},
      {"filter_full_inside", Kind::kFilterSum, kPrice,
       alp::Predicate::Between(p_lo - 1.0, p_hi + 1.0)},
      {"minmax", Kind::kMinMax, kPrice, {}},
      {"dot_sum", Kind::kDotSum, kTemp, alp::Predicate::Between(d_lo, d_hi)},
  };
  for (Query& q : s.queries) FillOracle(raw, &q);
  return s;
}

struct Executed {
  QueryResult result;
  double min = 0.0, max = 0.0;
};

Executed Execute(const Setup& s, const Query& q, alp::ThreadPool& pool) {
  Executed e;
  const auto& column = *s.table.Column(kColumns[q.column].column);
  switch (q.kind) {
    case Kind::kSum:
      e.result = alp::engine::RunSum(column, pool);
      break;
    case Kind::kFilterSum:
      e.result = alp::engine::RunFilterSum(column, q.pred, pool);
      break;
    case Kind::kMinMax:
      e.result = alp::engine::RunMinMax(column, pool, &e.min, &e.max);
      break;
    case Kind::kDotSum:
      e.result =
          alp::engine::RunFilteredDotSum(s.table, "temp", q.pred, "price", "gov", pool);
      break;
  }
  return e;
}

const char* EngineSpanName(Kind kind) {
  switch (kind) {
    case Kind::kSum: return "engine.run_sum";
    case Kind::kFilterSum: return "engine.run_filter_sum";
    case Kind::kMinMax: return "engine.run_minmax";
    case Kind::kDotSum: return "engine.run_filtered_dot_sum";
  }
  return "engine.run";
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

}  // namespace

Outcome RunAnalytics(const Options& options, Tracer* tracer) {
  Outcome out;
  out.workload = "analytics";
  const size_t n = options.small ? (size_t{256} << 10) : (size_t{2} << 20);

  Samples setup_s;
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s = Setup();  // Frees the previous table before the next is built.
    const int64_t t0 = ProcessCpuNs();
    s = MakeSetup(n, options.seed);
    setup_s.Add((ProcessCpuNs() - t0) / 1e9);
  }
  {
    // The table keeps no raw values; a rowgroup of the same dataset serves.
    const std::vector<double> values =
        GenerateColumn(kColumns[kTemp].dataset, alp::kRowgroupSize, options.seed);
    std::vector<uint8_t> bytes = alp::CompressColumn(values.data(), values.size());
    std::string rejected_as;
    if (!CorruptedCopyRejected(bytes, &rejected_as)) {
      out.Fail("analytics: Open accepted a corrupted column");
    }
    out.Report("corruption_check", 1, "-", "rejected: " + rejected_as);
  }
  ReleaseFreedMemory();
  ResetPeakRss();
  alp::ThreadPool pool(options.threads);
  const size_t nq = s.queries.size();
  std::vector<std::set<uint64_t>> patterns(nq);
  std::vector<Samples> per_query_us(nq);
  Samples all_queries_us;

  // One pass = every query of the mix once; returns the pass time in us.
  // Only the measured loop records per-query times and result patterns.
  Samples pass_cpu_ns;  // CPU time of every thread in each recorded pass.
  auto run_pass = [&](uint64_t pass, Tracer* t, alp::ThreadPool& p, bool record) {
    double pass_us = 0.0;
    int64_t cpu_ns = 0;
    for (size_t i = 0; i < nq; ++i) {
      const Query& q = s.queries[i];
      Executed e;
      int64_t ns;
      const int64_t cpu_start = ProcessCpuNs();
      {
        ScopedSpan root(t, "query.mix", pass * nq + i);
        ScopedSpan call(t, EngineSpanName(q.kind), pass * nq + i);
        e = Execute(s, q, p);
        call.Stop();
        ns = root.Stop();
      }
      pass_us += ns / 1e3;
      if (record) {
        cpu_ns += ProcessCpuNs() - cpu_start;
        per_query_us[i].Add(ns / 1e3);
        all_queries_us.Add(ns / 1e3);
      }
      ++out.attempted;
      const std::string label = std::string("analytics: ") + q.name;
      if (!e.result.status.ok()) {
        out.Fail(label + " returned " + e.result.status.ToString());
      } else if (q.kind == Kind::kMinMax) {
        if (Bits(e.min) != Bits(q.want_min) || Bits(e.max) != Bits(q.want_max)) {
          out.Fail(label + " min/max differs from the oracle");
        }
      } else {
        if (record) patterns[i].insert(Bits(e.result.sum));
        if (!SumWithinTolerance(e.result.sum, q.want, q.abs_sum)) {
          out.Fail(label + " sum outside tolerance of the oracle");
        }
      }
    }
    if (record) pass_cpu_ns.Add(static_cast<double>(cpu_ns));
    return pass_us;
  };
  auto loop = [&](double seconds, Tracer* t, alp::ThreadPool& p, Samples* pass_us,
                  bool record) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t pass = 0;
    do {
      pass_us->Add(run_pass(pass++, t, p, record));
    } while (NowNs() < deadline);
  };

  const double measure_s = tracer ? 0.4 * options.seconds : options.seconds;
  Samples pass_us;
  loop(measure_s, nullptr, pool, &pass_us, true);
  double covered_per_pass = 0.0;
  for (const Query& q : s.queries) covered_per_pass += q.covered;
  // Wall throughput over the median pass, so one stalled pass does not
  // move it.
  const double mvalues_s = covered_per_pass / pass_us.Median();
  std::string tail;
  const double tail_us = pass_us.Tail(&tail);
  std::string query_tail;
  const double query_tail_ms = all_queries_us.Tail(&query_tail) / 1e3;
  size_t bit_patterns = 0;
  for (const auto& p : patterns) bit_patterns = std::max(bit_patterns, p.size());

  out.end_to_end["setup_s"] = {setup_s.Median(), "s"};
  out.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  out.end_to_end["bits_per_value"] = {8.0 * s.compressed_bytes / (n * 4.0), "bits"};
  out.end_to_end["cpu_ns_per_value"] = {pass_cpu_ns.Median() / covered_per_pass,
                                        "ns/value"};
  out.Figure("query_mvalues_s", mvalues_s, "Mvalue/s", "values covered over the mix");
  out.Figure("query_p50_ms", all_queries_us.Median() / 1e3, "ms",
             "n=" + std::to_string(all_queries_us.size()) + " queries");
  out.Figure("query_p99_ms", all_queries_us.Quantile(0.99) / 1e3, "ms",
             query_tail + "=" + std::to_string(query_tail_ms) + " ms");
  out.Report("cpu_ns_per_value", out.end_to_end["cpu_ns_per_value"].value, "ns/value",
             "all threads, median pass");
  out.Report("mix_p50_us", pass_us.Median(), "us",
             "n=" + std::to_string(pass_us.size()) + " passes of " +
                 std::to_string(nq) + " queries");
  out.Report("mix_" + tail + "_us", tail_us, "us");
  for (size_t i = 0; i < nq; ++i) {
    std::string t;
    const double q_tail = per_query_us[i].Tail(&t);
    out.Report(std::string("query.") + s.queries[i].name + "_p50_ms",
               per_query_us[i].Median() / 1e3, "ms",
               t + "=" + std::to_string(q_tail / 1e3) + " ms");
  }
  out.Report("sum_bit_patterns", bit_patterns, "count", "max distinct sums per query");
  out.Report("setup_s", setup_s.Median(), "s",
             "process CPU, median of " + std::to_string(kSetupRepeats));
  out.Report("failed_share", out.failed / std::max(1.0, double(out.attempted)), "share");
  out.Report("peak_rss_mb", PeakRssMb(), "MB");

  if (tracer == nullptr) return out;

  Samples traced_us;
  loop(0.3 * options.seconds, tracer, pool, &traced_us, false);
  out.TraceOverhead(traced_us.Median(), pass_us.Median());

  auto index_of = [&](const char* name) {
    size_t i = 0;
    while (std::string(s.queries[i].name) != name) ++i;
    return i;
  };
  auto median_ns_per_value = [&](const char* name) {
    return per_query_us[index_of(name)].Median() * 1e3 / n;
  };
  const double sum_ns = median_ns_per_value("sum");
  out.Layer("engine.sum_ns_per_value", sum_ns, "ns/value");
  out.Layer("engine.filter_sum_ns_per_value",
            (median_ns_per_value("filter_sparse") +
             median_ns_per_value("filter_dense_rd") +
             median_ns_per_value("filter_full_inside")) /
                3.0,
            "ns/value");
  out.Layer("engine.dot_sum_ns_per_value", median_ns_per_value("dot_sum"), "ns/value");
  out.Layer("engine.minmax_us", median_ns_per_value("minmax") * n / 1e3, "us");
  out.Layer("engine.sum_bit_patterns", bit_patterns, "count");

  // Counts from QueryResult over the filtered queries (deterministic).
  double vectors = 0, skipped = 0, packed = 0, full = 0, survivors = 0;
  for (const Query& q : s.queries) {
    if (q.kind != Kind::kFilterSum && q.kind != Kind::kDotSum) continue;
    const QueryResult r = Execute(s, q, pool).result;
    vectors += static_cast<double>((n + alp::kVectorSize - 1) / alp::kVectorSize);
    skipped += r.vectors_skipped;
    packed += r.vectors_packed_eval;
    full += r.vectors_full_inside;
    survivors += q.survivors;
  }
  out.Layer("engine.vectors_skipped_share", skipped / vectors, "share");
  out.Layer("engine.vectors_packed_eval_share", packed / vectors, "share");
  out.Layer("engine.vectors_full_inside_share", full / vectors, "share");
  // Upper bound: whole vectors decoded (neither skipped nor evaluated on
  // packed lanes) plus one materialized value per survivor.
  out.Layer("engine.values_decoded_per_survivor",
            ((vectors - skipped - packed) * alp::kVectorSize + survivors) /
                std::max(1.0, survivors),
            "count");

  // The mix on one thread: parallel speed-up over the thread count.
  {
    alp::ThreadPool one(1);
    Samples serial_us;
    loop(0.1 * options.seconds, nullptr, one, &serial_us, false);
    out.Layer("engine.parallel_efficiency",
              serial_us.Median() / (pass_us.Median() * options.threads), "share");
  }

  // The per-vector read kernels, one thread, over every table column.
  double decode_ns = 0, checked_ns = 0, pushdown_ns = 0, temp_decode_ns = 0;
  double decoded_values = 0, pushdown_values = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(0.15 * options.seconds * 1e9);
  std::vector<double> buffer(alp::kVectorSize);
  alp::pushdown::EvalScratch scratch;
  uint64_t request = 0;
  do {
    for (size_t c = 0; c < std::size(kColumns); ++c) {
      const alp::ColumnReader<double>& reader =
          *s.table.Column(kColumns[c].column)->AlpReader();
      ScopedSpan root(tracer, "read.split", ++request);
      {
        ScopedSpan span(tracer, "alp.decode", request);
        for (size_t v = 0; v < reader.vector_count(); ++v) {
          reader.DecodeVector(v, buffer.data());
        }
        const double ns = span.Stop();
        decode_ns += ns;
        if (c == kTemp) temp_decode_ns += ns;
      }
      {
        ScopedSpan span(tracer, "alp.decode_checked", request);
        for (size_t v = 0; v < reader.vector_count(); ++v) {
          if (!reader.TryDecodeVector(v, buffer.data()).ok()) {
            out.Fail("analytics: TryDecodeVector failed on a valid column");
          }
        }
        checked_ns += span.Stop();
      }
      decoded_values += reader.value_count();
      if (c == kTemp || c == kPrice) {
        // Partial selectivity on temp, full-inside on price; both packed.
        const alp::TranslatedPredicate pred(
            s.queries[index_of(c == kTemp ? "dot_sum" : "filter_full_inside")].pred);
        ScopedSpan span(tracer, "alp.pushdown", request);
        double sum = 0.0;
        alp::pushdown::VectorCounters counters;
        for (size_t v = 0; v < reader.vector_count(); ++v) {
          alp::pushdown::FilterSumVector(reader, v, pred, &scratch, &sum, &counters);
        }
        pushdown_ns += span.Stop();
        pushdown_values += reader.value_count();
      }
    }
  } while (NowNs() < deadline);
  const double passes = decoded_values / (n * std::size(kColumns));
  out.Layer("alp.decode_ns_per_value", decode_ns / decoded_values, "ns/value");
  out.Layer("alp.decode_checked_ns_per_value", checked_ns / decoded_values, "ns/value");
  out.Layer("alp.pushdown_ns_per_value", pushdown_ns / pushdown_values, "ns/value");

  // RunSum's thread time against the one-thread decode of the same column.
  const double sum_thread_ns = sum_ns * n * options.threads;
  const double decode_part = temp_decode_ns / passes;
  out.Layer("engine.residual_share", (sum_thread_ns - decode_part) / sum_thread_ns,
            "share");
  out.ledger.AddDecomposition("read.run_sum_thread_time", "ns", sum_thread_ns,
                              {{"alp.decode", decode_part}});
  return out;
}

}  // namespace perfbench
