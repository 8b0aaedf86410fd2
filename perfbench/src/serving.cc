// Workload `serving`: the serving path. One load generator drives an open
// loop against a server::Server over a catalog whose decoded size is eight
// times the server's cache. Arrivals follow a seeded Poisson schedule at
// fixed offered rates; latency is timed from each request's due time.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "common.h"
#include "data/generator.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "io/seekable_reader.h"
#include "server/server.h"
#include "util/checksum.h"

namespace perfbench {
namespace {

using alp::server::QueryClass;

constexpr const char* kDatasets[] = {"City-Temp", "Stocks-USA", "Gov/26", "POI-lat"};
constexpr size_t kCatalogColumns = 8;  ///< Two columns per dataset.

// Fixed load settings. They are never calibrated from the host: a rate
// chosen from a measured speed would hide the speed-up it should show.
// The nominal rate is a quarter of the highest ladder rate the reference
// host sustains (4000 req/s, see README.md), so the nominal figures show a
// lightly loaded server and the ladder shows where it saturates.
constexpr double kNominalRps = 1000.0;
constexpr double kLadderRps[] = {500.0, 1000.0, 2000.0, 4000.0, 8000.0};
// p99 limits per class; host stalls on a shared 4-vCPU machine reach a few
// milliseconds, so tighter limits would measure the host, not the server.
constexpr double kLimitUs[alp::server::kQueryClassCount] = {5000.0, 20000.0, 50000.0};
// Lookups, aggregates and scans. An assumed mix (the one bench_serving_load
// uses), not one measured from a production trace.
constexpr double kClassShare[alp::server::kQueryClassCount] = {0.6, 0.3, 0.1};
// Point lookups follow YCSB's default request distribution, the scrambled
// Zipfian (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB",
// SoCC 2010): Zipf with constant 0.99 over every vector of the catalog, the
// hot ranks spread over columns and vectors by a seeded permutation.
constexpr double kZipfConstant = 0.99;
// Checking a scan compares its whole column (2 MiB) on the generator
// thread; it waits for a gap in the schedule this long, so checking does
// not make the generator late.
constexpr int64_t kScanCheckSlackNs = 300000;

/// Zipf(s) over n ranks, sampled by inverting the cumulative weights.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) cdf_[i] = total += 1.0 / std::pow(i + 1.0, s);
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(double u) const {
    return std::min<size_t>(cdf_.size() - 1,
                            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct CatalogColumn {
  std::string name;
  std::vector<double> raw;
  double lo = 0.0, hi = 0.0;  ///< Aggregate filter: middle 10% of values.
  double filtered_sum = 0.0, filtered_abs = 0.0, scan_checksum = 0.0;
};

struct Setup {
  std::vector<CatalogColumn> columns;
  size_t vectors_per_column = 0;
  /// Zipf rank -> catalog vector (column * vectors_per_column + vector).
  std::vector<size_t> hot_order;
  std::unique_ptr<alp::server::Server> server;
  double decoded_bytes = 0.0, compressed_bytes = 0.0;
  size_t cache_bytes = 0;
};

Setup MakeSetup(size_t n, uint64_t seed, unsigned workers) {
  Setup s;
  for (size_t c = 0; c < kCatalogColumns; ++c) {
    CatalogColumn col;
    col.name = "c" + std::to_string(c);
    col.raw = GenerateColumn(kDatasets[c % std::size(kDatasets)], n, seed * 131 + 17 + c);
    std::vector<double> sorted = col.raw;
    std::sort(sorted.begin(), sorted.end());
    col.lo = sorted[sorted.size() * 45 / 100];
    col.hi = sorted[sorted.size() * 55 / 100];
    const alp::Predicate pred = alp::Predicate::Between(col.lo, col.hi);
    for (size_t i = 0; i < n; ++i) {
      if (pred.Matches(col.raw[i])) {
        col.filtered_sum += col.raw[i];
        col.filtered_abs += std::fabs(col.raw[i]);
      }
      if (i % alp::kVectorSize == 0) col.scan_checksum += col.raw[i];
    }
    s.decoded_bytes += 8.0 * n;
    s.columns.push_back(std::move(col));
  }
  s.vectors_per_column = (n + alp::kVectorSize - 1) / alp::kVectorSize;
  s.hot_order.resize(kCatalogColumns * s.vectors_per_column);
  for (size_t g = 0; g < s.hot_order.size(); ++g) s.hot_order[g] = g;
  alp::data::Rng rng(seed * 7919);
  for (size_t g = s.hot_order.size() - 1; g > 0; --g) {
    std::swap(s.hot_order[g], s.hot_order[rng.NextBelow(g + 1)]);
  }
  alp::server::ServerConfig config;
  config.workers = workers;
  // Queue deep enough that nothing is refused at any ladder rate: overload
  // shows as latency and backlog, not as shed requests.
  config.queue_capacity = size_t{1} << 20;
  config.slow_start_floor = config.queue_capacity;
  for (double& f : config.shed_fraction) f = 1.0;
  s.cache_bytes = static_cast<size_t>(s.decoded_bytes / 8);
  config.cache_bytes = s.cache_bytes;
  s.server = std::make_unique<alp::server::Server>(config);
  for (const CatalogColumn& col : s.columns) {
    auto stored = alp::engine::StoredColumn::MakeAlp(col.raw.data(), col.raw.size());
    s.compressed_bytes += stored.compressed_bytes();
    (void)s.server->AddColumn(col.name, std::move(stored));
  }
  return s;
}

struct Planned {
  double due_s;  ///< Offset from the rung start.
  alp::server::Request request;
  size_t column;
};

std::vector<Planned> Schedule(const Setup& s, double rps, double seconds, uint64_t seed) {
  alp::data::Rng rng(seed);
  const Zipf vectors(s.hot_order.size(), kZipfConstant);
  std::vector<Planned> plan;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rps;
    if (t >= seconds) break;
    Planned p;
    p.due_s = t;
    const double u = rng.NextDouble();
    const QueryClass qc = u < kClassShare[0]                   ? QueryClass::kPointLookup
                          : u < kClassShare[0] + kClassShare[1] ? QueryClass::kAggregate
                                                                : QueryClass::kScan;
    p.request.query_class = qc;
    if (qc == QueryClass::kPointLookup) {
      const size_t vector = s.hot_order[vectors.Sample(rng.NextDouble())];
      p.column = vector / s.vectors_per_column;
      p.request.vector_index = vector % s.vectors_per_column;
    } else {
      p.column = rng.NextBelow(kCatalogColumns);
    }
    const CatalogColumn& col = s.columns[p.column];
    p.request.column = col.name;
    p.request.return_values = qc == QueryClass::kScan;
    if (qc == QueryClass::kAggregate) {
      p.request.has_filter = true;
      p.request.filter_lo = col.lo;
      p.request.filter_hi = col.hi;
    }
    plan.push_back(std::move(p));
  }
  return plan;
}

/// Per-rung results.
struct Rung {
  Samples latency_us[alp::server::kQueryClassCount];
  Samples queue_us, lateness_us;
  Samples exec_us[alp::server::kQueryClassCount];
  size_t sent = 0, good = 0, refused = 0;
  double covered_values = 0.0;  ///< Column values covered by OK requests.
  double worker_cpu_ns = 0.0;   ///< Server CPU time: process minus generator.
  double drain_us = 0.0;  ///< Last completion after the rung's end.
  alp::server::ServerStats stats_before, stats_after;
  alp::io::DecodedVectorCache::Stats cache_before, cache_after;

  bool Sustained() const {
    for (size_t c = 0; c < alp::server::kQueryClassCount; ++c) {
      if (latency_us[c].Quantile(0.99) > kLimitUs[c]) return false;
    }
    return refused == 0 && drain_us <= kLimitUs[2];
  }
};

struct InFlight {
  uint64_t id;  ///< Plan index: the request id of every span it gets.
  const Planned* plan;
  int64_t due_ns;
  int64_t submit_ns;
  std::future<alp::server::Response> future;
};

/// Checks and records one response. Latency runs from the due time to the
/// completion the server reports: Submit's call time + queue + exec.
void Harvest(const Setup& s, InFlight& f, Tracer* tracer, Rung* rung, Outcome* out,
             int64_t* last_completion) {
  const uint64_t id = f.id;
  const alp::server::Response r = f.future.get();
  const auto qc = static_cast<size_t>(f.plan->request.query_class);
  const CatalogColumn& col = s.columns[f.plan->column];
  ++out->attempted;
  if (!r.status.ok()) {
    // A refusal or an error is a miss and a failure.
    ++rung->refused;
    out->Fail("serving: " +
              std::string(alp::server::QueryClassName(f.plan->request.query_class)) +
              " returned " + r.status.ToString());
    return;
  }
  bool right = true;
  switch (f.plan->request.query_class) {
    case QueryClass::kPointLookup: {
      const size_t begin = f.plan->request.vector_index * alp::kVectorSize;
      const size_t len = std::min<size_t>(alp::kVectorSize, col.raw.size() - begin);
      right = r.values.size() == len &&
              std::memcmp(r.values.data(), col.raw.data() + begin, 8 * len) == 0;
      break;
    }
    case QueryClass::kAggregate:
      right = SumWithinTolerance(r.sum, col.filtered_sum, col.filtered_abs);
      break;
    case QueryClass::kScan:
      right = r.sum == col.scan_checksum && r.tuples == col.raw.size() &&
              r.values.size() == col.raw.size() &&
              std::memcmp(r.values.data(), col.raw.data(), 8 * col.raw.size()) == 0;
      break;
  }
  if (!right) {
    out->Fail("serving: wrong " +
              std::string(alp::server::QueryClassName(f.plan->request.query_class)) +
              " result on " + col.name);
  }
  const int64_t queue_end = f.submit_ns + static_cast<int64_t>(r.queue_ns);
  const int64_t done = queue_end + static_cast<int64_t>(r.exec_ns);
  *last_completion = std::max(*last_completion, done);
  const double latency_us = (done - f.due_ns) / 1e3;
  rung->latency_us[qc].Add(latency_us);
  rung->queue_us.Add(r.queue_ns / 1e3);
  rung->exec_us[qc].Add(r.exec_ns / 1e3);
  if (right && latency_us <= kLimitUs[qc]) ++rung->good;
  const bool is_lookup = qc == static_cast<size_t>(QueryClass::kPointLookup);
  rung->covered_values +=
      static_cast<double>(is_lookup ? r.values.size() : col.raw.size());
  if (tracer != nullptr) {
    // The request's interval split by what the generator and the server
    // report: generator lateness, then queue, then execution.
    const uint32_t root = tracer->Add("serve.request", f.due_ns, done, 0, id);
    if (root == 0) return;
    tracer->Add("loadgen.lateness", f.due_ns, f.submit_ns, root, id);
    tracer->Add("server.queue", f.submit_ns, queue_end, root, id);
    tracer->Add("server.exec", queue_end, done, root, id);
  }
}

/// Runs one rung of the open loop on the calling thread, the only load
/// generator thread.
Rung RunRung(const Setup& s, double rps, double seconds, uint64_t seed, Tracer* tracer,
             Outcome* out) {
  Rung rung;
  const std::vector<Planned> plan = Schedule(s, rps, seconds, seed);
  rung.stats_before = s.server->stats();
  rung.cache_before = s.server->cache_stats();
  const int64_t process_cpu = ProcessCpuNs();
  const int64_t generator_cpu = ThreadCpuNs();
  std::deque<InFlight> inflight;
  int64_t last_completion = 0;
  auto harvest_ready = [&](int64_t until_ns) {
    while (!inflight.empty() && inflight.front().future.wait_for(std::chrono::seconds(
                                    0)) == std::future_status::ready) {
      const bool scan =
          inflight.front().plan->request.query_class == QueryClass::kScan;
      if (NowNs() + (scan ? kScanCheckSlackNs : 0) >= until_ns) break;
      Harvest(s, inflight.front(), tracer, &rung, out, &last_completion);
      inflight.pop_front();
    }
  };
  const int64_t start = NowNs() + 1000000;  // 1 ms to get going.
  for (size_t i = 0; i < plan.size(); ++i) {
    const int64_t due = start + static_cast<int64_t>(plan[i].due_s * 1e9);
    // Harvest while there is slack, then spin to the due time.
    harvest_ready(due - 20000);
    // Spin, never sleep: a sleeping generator wakes late (by milliseconds
    // on a busy host), and lateness is charged to the server.
    int64_t now = NowNs();
    while (now < due) now = NowNs();
    rung.lateness_us.Add((now - due) / 1e3);
    InFlight f{i, &plan[i], due, now, {}};
    {
      ScopedSpan send(tracer, "loadgen.send", i);
      ScopedSpan submit(tracer, "server.submit", i);
      f.future = s.server->Submit(plan[i].request);
    }
    inflight.push_back(std::move(f));
    ++rung.sent;
  }
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  while (!inflight.empty()) {
    Harvest(s, inflight.front(), tracer, &rung, out, &last_completion);
    inflight.pop_front();
  }
  rung.drain_us = std::max(0.0, (last_completion - end) / 1e3);
  rung.worker_cpu_ns = static_cast<double>((ProcessCpuNs() - process_cpu) -
                                           (ThreadCpuNs() - generator_cpu));
  rung.stats_after = s.server->stats();
  rung.cache_after = s.server->cache_stats();
  return rung;
}

/// A cold point lookup through SeekableReader, against its steps made as
/// separate public calls: ReadAt, Checksum64, OpenRowgroupChunk, decode.
struct LookupSplit {
  Samples cold_us, warm_us, read_us, checksum_us;
  Samples chunk_open_us, chunk_decode_us, filter_us;
};

void SplitLookups(const Setup& s, double seconds, Tracer* tracer, LookupSplit* split,
                  Outcome* out) {
  const CatalogColumn& col = s.columns.front();
  const std::vector<uint8_t> bytes = alp::CompressColumn(col.raw.data(), col.raw.size());
  auto source = std::make_shared<alp::io::MemorySource>(bytes.data(), bytes.size());
  alp::io::DecodedVectorCache cache(s.cache_bytes);
  alp::io::SeekableReaderOptions options;
  options.cache = &cache;
  auto opened = alp::io::SeekableReader<double>::Open(source, options);
  if (!opened.ok()) {
    out->Fail("serving: SeekableReader::Open failed: " + opened.status().ToString());
    return;
  }
  const auto& reader = *opened.value();
  const alp::TranslatedPredicate pred(alp::Predicate::Between(col.lo, col.hi));
  std::vector<double> buffer(alp::kVectorSize);
  std::vector<uint8_t> chunk;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t request = 0;
  do {
    for (size_t rg = 0; rg < reader.rowgroup_count(); ++rg) {
      const size_t first = rg * alp::kRowgroupVectors;
      const size_t local = (request * 37) % std::min<size_t>(
                                                alp::kRowgroupVectors,
                                                reader.vector_count() - first);
      const size_t v = first + local;
      ++request;
      cache.Clear();
      bool ok = true;
      {
        ScopedSpan span(tracer, "io.lookup_cold", request);
        ok &= reader.TryDecodeVector(v, buffer.data()).ok();
        split->cold_us.Add(span.Stop() / 1e3);
      }
      {
        ScopedSpan span(tracer, "io.lookup_warm", request);
        ok &= reader.TryDecodeVector(v, buffer.data()).ok();
        split->warm_us.Add(span.Stop() / 1e3);
      }
      ok &= std::memcmp(buffer.data(), col.raw.data() + v * alp::kVectorSize,
                        8 * reader.VectorLength(v)) == 0;
      {
        ScopedSpan root(tracer, "lookup.split", request);
        const uint64_t begin = reader.index().rowgroup_offsets[rg];
        const uint64_t end = rg + 1 < reader.rowgroup_count()
                                 ? reader.index().rowgroup_offsets[rg + 1]
                                 : source->size();
        chunk.resize(end - begin);
        {
          ScopedSpan span(tracer, "io.read", request);
          ok &= source->ReadAt(begin, chunk.size(), chunk.data()).ok();
          split->read_us.Add(span.Stop() / 1e3);
        }
        {
          ScopedSpan span(tracer, "util.checksum", request);
          ok &= alp::Checksum64(chunk.data(), chunk.size()) ==
                reader.index().rowgroup_checksums[rg];
          split->checksum_us.Add(span.Stop() / 1e3);
        }
        auto chunk_reader = [&] {
          ScopedSpan span(tracer, "alp.chunk_open", request);
          auto opened_chunk = alp::ColumnReader<double>::OpenRowgroupChunk(
              chunk.data(), chunk.size(), reader.RowgroupValueCount(rg));
          split->chunk_open_us.Add(span.Stop() / 1e3);
          return opened_chunk;
        }();
        ok &= chunk_reader.ok();
        if (chunk_reader.ok()) {
          ScopedSpan span(tracer, "alp.chunk_decode", request);
          ok &= chunk_reader.value().TryDecodeVector(local, buffer.data()).ok();
          split->chunk_decode_us.Add(span.Stop() / 1e3);
        }
      }
      cache.Clear();
      {
        ScopedSpan span(tracer, "io.filter_sum_rowgroup", request);
        double sum = 0.0;
        alp::pushdown::VectorCounters counters;
        ok &= reader.FilterSumRowgroup(rg, pred, &sum, &counters).ok();
        split->filter_us.Add(span.Stop() / 1e3);
      }
      if (!ok) {
        out->Fail("serving: out-of-core lookup split failed on rowgroup " +
                  std::to_string(rg));
      }
    }
  } while (NowNs() < deadline);
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Outcome RunServing(const Options& options, Tracer* tracer) {
  Outcome out;
  out.workload = "serving";
  const size_t n = options.small ? (size_t{64} << 10) : (size_t{256} << 10);
  const unsigned workers = std::max(1u, options.threads - 1);

  Samples setup_s;
  Setup s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s = Setup();  // Stops the previous server before the next one starts.
    const int64_t t0 = ProcessCpuNs();
    s = MakeSetup(n, options.seed, workers);
    setup_s.Add((ProcessCpuNs() - t0) / 1e9);
  }
  {
    std::vector<uint8_t> bytes =
        alp::CompressColumn(s.columns.front().raw.data(), s.columns.front().raw.size());
    std::string rejected_as;
    if (!CorruptedCopyRejected(bytes, &rejected_as)) {
      out.Fail("serving: Open accepted a corrupted column");
    }
    out.Report("corruption_check", 1, "-", "rejected: " + rejected_as);
  }
  ReleaseFreedMemory();
  ResetPeakRss();

  // Nominal rung for most of the time, then the ladder from its lowest rate
  // up, stopping at the first rate that misses a limit.
  const double measure_s = (tracer ? 0.4 : 0.7) * options.seconds;
  const Rung nominal =
      RunRung(s, kNominalRps, measure_s, options.seed * 17 + 1, nullptr, &out);
  // Read before the ladder: its top rungs overload the server on purpose,
  // and the backlog they build is not the nominal workload's memory.
  const double peak_rss_mb = PeakRssMb();
  double sustained = 0.0;
  const double rung_s = 0.3 * options.seconds / (std::size(kLadderRps) - 1);
  std::string ladder_note;
  uint64_t rung_seed = options.seed * 17 + 2;
  for (double rps : kLadderRps) {
    const bool is_nominal = rps == kNominalRps;
    const Rung rung =
        is_nominal ? Rung() : RunRung(s, rps, rung_s, rung_seed++, nullptr, &out);
    const bool ok = is_nominal ? nominal.Sustained() : rung.Sustained();
    ladder_note += std::to_string(static_cast<int>(rps)) + (ok ? ":ok " : ":miss ");
    if (!ok) break;
    sustained = rps;
  }

  const size_t lookup = static_cast<size_t>(QueryClass::kPointLookup);
  const size_t aggregate = static_cast<size_t>(QueryClass::kAggregate);
  const size_t scan = static_cast<size_t>(QueryClass::kScan);
  const double goodput_share = Share(nominal.good, nominal.sent);
  auto count = [&](size_t c) {
    return "n=" + std::to_string(nominal.latency_us[c].size()) + " at " +
           std::to_string(static_cast<int>(kNominalRps)) + " req/s";
  };

  out.end_to_end["setup_s"] = {setup_s.Median(), "s"};
  out.end_to_end["peak_rss_mb"] = {peak_rss_mb, "MB"};
  out.end_to_end["bits_per_value"] = {8.0 * s.compressed_bytes / (s.decoded_bytes / 8.0),
                                      "bits"};
  out.end_to_end["cpu_ns_per_value"] = {nominal.worker_cpu_ns / nominal.covered_values,
                                        "ns/value"};
  out.Figure("lookup_p50_us", nominal.latency_us[lookup].Median(), "us", count(lookup));
  out.Figure("lookup_p99_us", nominal.latency_us[lookup].Quantile(0.99), "us",
             count(lookup));
  out.Figure("aggregate_p99_us", nominal.latency_us[aggregate].Quantile(0.99), "us",
             count(aggregate));
  out.Figure("scan_p99_us", nominal.latency_us[scan].Quantile(0.99), "us", count(scan));
  out.Figure("goodput_share", goodput_share, "share", "right and within class limits");
  out.Figure("sustained_rps", sustained, "1/s", ladder_note);
  out.Report("cpu_ns_per_value", out.end_to_end["cpu_ns_per_value"].value, "ns/value",
             "server workers");
  out.Report("lookup_exec_p50_us", nominal.exec_us[lookup].Median(), "us",
             "server-reported");
  std::string lateness_tail;
  const double lateness_us = nominal.lateness_us.Tail(&lateness_tail);
  out.Report("loadgen_lateness_" + lateness_tail + "_us", lateness_us, "us",
             "generator send time after due time");
  out.Report("setup_s", setup_s.Median(), "s",
             "process CPU, median of " + std::to_string(kSetupRepeats));
  out.Report("failed_share", out.failed / std::max(1.0, double(out.attempted)), "share");
  out.Report("peak_rss_mb", peak_rss_mb, "MB", "before the ladder");
  out.Report("catalog_decoded_mb", s.decoded_bytes / 1e6, "MB",
             "cache " + std::to_string(s.cache_bytes >> 10) + " KiB");

  if (tracer == nullptr) return out;

  const Rung traced =
      RunRung(s, kNominalRps, 0.3 * options.seconds, options.seed * 17 + 1, tracer, &out);
  out.TraceOverhead(traced.latency_us[lookup].Median(),
                    nominal.latency_us[lookup].Median());

  out.Layer("server.queue_us.p50", nominal.queue_us.Median(), "us");
  out.Layer("server.queue_us.p99", nominal.queue_us.Quantile(0.99), "us");
  for (size_t c = 0; c < alp::server::kQueryClassCount; ++c) {
    const std::string prefix = std::string("server.exec_us.") +
                               alp::server::QueryClassName(static_cast<QueryClass>(c));
    out.Layer(prefix + ".p50", nominal.exec_us[c].Median(), "us");
    out.Layer(prefix + ".p99", nominal.exec_us[c].Quantile(0.99), "us");
  }
  const auto& a = nominal.stats_after;
  const auto& b = nominal.stats_before;
  out.Layer("server.shed_share",
            Share(a.SheddedTotal() - b.SheddedTotal(), a.submitted - b.submitted),
            "share");
  out.Layer("server.max_queue_depth", static_cast<double>(a.max_queue_depth), "count");
  const auto& ca = nominal.cache_after;
  const auto& cb = nominal.cache_before;
  const uint64_t hits = ca.hits - cb.hits;
  out.Layer("io.cache_hit_rate", Share(hits, hits + (ca.misses - cb.misses)), "share");
  out.Layer("io.cache_evictions_per_request",
            Share(ca.evictions - cb.evictions, nominal.sent), "count");
  out.Layer("loadgen.lateness_us.p99", nominal.lateness_us.Quantile(0.99), "us");

  LookupSplit split;
  SplitLookups(s, 0.2 * options.seconds, tracer, &split, &out);
  const double cold = split.cold_us.Median();
  const double parts = split.read_us.Median() + split.checksum_us.Median() +
                       split.chunk_open_us.Median() + split.chunk_decode_us.Median();
  out.Layer("io.lookup_cold_us", cold, "us");
  out.Layer("io.lookup_warm_us", split.warm_us.Median(), "us");
  out.Layer("io.read_us", split.read_us.Median(), "us");
  out.Layer("alp.chunk_open_us", split.chunk_open_us.Median(), "us");
  out.Layer("alp.chunk_decode_us", split.chunk_decode_us.Median(), "us");
  out.Layer("io.lookup_residual_us", cold - parts, "us");
  out.Layer("io.filter_sum_rowgroup_us", split.filter_us.Median(), "us");
  out.ledger.AddDecomposition("io.cold_lookup", "us", cold,
                              {{"io.read", split.read_us.Median()},
                               {"util.checksum", split.checksum_us.Median()},
                               {"alp.chunk_open", split.chunk_open_us.Median()},
                               {"alp.chunk_decode", split.chunk_decode_us.Median()}});
  return out;
}

}  // namespace perfbench
