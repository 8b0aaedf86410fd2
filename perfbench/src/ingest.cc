// Workload `ingest`: the write path. Compresses a mixed corpus with
// CompressColumnParallel on nproc threads and opens each result with
// ColumnReader::OpenParallel, in a closed loop for the measured time.

#include <cstring>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/encoder.h"
#include "alp/rd.h"
#include "alp/sampler.h"
#include "common.h"
#include "fastlanes/ffor.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// City-Temp, Stocks-USA and Gov/26 compress with ALP decimals; POI-lat
/// falls back to ALP_rd.
constexpr const char* kCorpus[] = {"City-Temp", "Stocks-USA", "Gov/26", "POI-lat"};

struct Column {
  const char* dataset;
  std::vector<double> values;
};

std::vector<Column> MakeCorpus(size_t n, uint64_t seed) {
  std::vector<Column> corpus;
  uint64_t k = 0;
  for (const char* name : kCorpus) {
    corpus.push_back({name, GenerateColumn(name, n, seed * 131 + k++)});
  }
  return corpus;
}

/// Nanoseconds spent in each write-path layer when its public calls are
/// made one by one over a column, rowgroup by rowgroup.
struct WriteSplit {
  double sample_ns = 0, encode_ns = 0, rd_encode_ns = 0, pack_ns = 0;
  double checksum_ns = 0, compress_ns = 0, open_ns = 0;
  double values = 0, alp_values = 0, rd_values = 0, bytes = 0;
};

void SplitWritePath(const Column& column, uint64_t request, Tracer* tracer,
                    std::vector<alp::EncodedVector<double>>* scratch,
                    WriteSplit* split) {
  using alp::kRowgroupSize;
  using alp::kVectorSize;
  const double* data = column.values.data();
  const size_t n = column.values.size();
  {
    ScopedSpan root(tracer, "write.split", request);
    std::vector<alp::Combination> combos(scratch->size());
    std::vector<uint64_t> packed(kVectorSize);
    alp::RdEncodedVector<double> rd_vec;
    for (size_t off = 0; off < n; off += kRowgroupSize) {
      const size_t len = std::min<size_t>(kRowgroupSize, n - off);
      const size_t vectors = (len + kVectorSize - 1) / kVectorSize;
      auto vec_len = [&](size_t v) {
        return static_cast<unsigned>(
            std::min<size_t>(kVectorSize, len - v * kVectorSize));
      };
      alp::RowgroupAnalysis analysis;
      {
        ScopedSpan s(tracer, "alp.sample", request);
        analysis = alp::AnalyzeRowgroup(data + off, len);
        if (analysis.scheme != alp::Scheme::kAlpRd) {
          for (size_t v = 0; v < vectors; ++v) {
            combos[v] = alp::ChooseForVector(data + off + v * kVectorSize, vec_len(v),
                                             analysis.combinations);
          }
        }
        split->sample_ns += s.Stop();
      }
      if (analysis.scheme == alp::Scheme::kAlpRd) {
        ScopedSpan s(tracer, "alp.rd_encode", request);
        const alp::RdParams<double> params = alp::RdAnalyzeRowgroup(data + off, len);
        for (size_t v = 0; v < vectors; ++v) {
          alp::RdEncodeVector(data + off + v * kVectorSize, vec_len(v), params, &rd_vec);
        }
        split->rd_encode_ns += s.Stop();
        split->rd_values += len;
        continue;
      }
      {
        ScopedSpan s(tracer, "alp.encode", request);
        for (size_t v = 0; v < vectors; ++v) {
          alp::EncodeVector(data + off + v * kVectorSize, vec_len(v), combos[v],
                            &(*scratch)[v]);
        }
        split->encode_ns += s.Stop();
      }
      {
        ScopedSpan s(tracer, "fastlanes.ffor_pack", request);
        for (size_t v = 0; v < vectors; ++v) {
          alp::fastlanes::FforEncode((*scratch)[v].encoded, packed.data(),
                                     (*scratch)[v].ffor);
        }
        split->pack_ns += s.Stop();
      }
      split->alp_values += len;
    }
  }
  // The whole serial call, then the checksum and open over its output.
  ScopedSpan root(tracer, "write.serial", request);
  std::vector<uint8_t> bytes;
  {
    ScopedSpan s(tracer, "alp.compress", request);
    bytes = alp::CompressColumn(data, n);
    split->compress_ns += s.Stop();
  }
  {
    ScopedSpan s(tracer, "util.checksum", request);
    volatile uint64_t sink = alp::Checksum64(bytes.data(), bytes.size());
    (void)sink;
    split->checksum_ns += s.Stop();
  }
  {
    ScopedSpan s(tracer, "alp.open", request);
    const bool opened = alp::ColumnReader<double>::Open(bytes.data(), bytes.size()).ok();
    split->open_ns += s.Stop();
    (void)opened;
  }
  split->values += n;
  split->bytes += bytes.size();
}

}  // namespace

Outcome RunIngest(const Options& options, Tracer* tracer) {
  Outcome out;
  out.workload = "ingest";
  const size_t n = options.small ? (size_t{128} << 10) : (size_t{512} << 10);

  alp::ThreadPool pool(options.threads);

  // Set-up: the corpus and its reference outputs. Each column must
  // round-trip bit for bit, and every later compression must reproduce
  // these bytes exactly.
  Samples setup;
  std::vector<Column> corpus;
  std::vector<std::vector<uint8_t>> reference;
  alp::CompressionInfo info;
  for (int r = 0; r < kSetupRepeats; ++r) {
    corpus.clear();  // Frees the previous set-up before the next is built.
    reference.clear();
    info = alp::CompressionInfo();
    const int64_t t0 = ProcessCpuNs();
    corpus = MakeCorpus(n, options.seed);
    for (const Column& c : corpus) {
      alp::CompressionInfo column_info;
      reference.push_back(alp::CompressColumnParallel(
          c.values.data(), c.values.size(), {}, &column_info, &pool));
      info.MergeFrom(column_info);
    }
    setup.Add((ProcessCpuNs() - t0) / 1e9);
  }
  double raw_bytes = 0.0;
  double compressed_bytes = 0.0;
  for (size_t c = 0; c < corpus.size(); ++c) {
    const std::vector<double>& values = corpus[c].values;
    raw_bytes += 8.0 * values.size();
    compressed_bytes += reference[c].size();
    auto reader = alp::ColumnReader<double>::Open(reference[c].data(), reference[c].size());
    std::vector<double> decoded(values.size());
    if (!reader.ok() || !reader.value().TryDecodeAll(decoded.data()).ok() ||
        std::memcmp(decoded.data(), values.data(), 8 * decoded.size()) != 0) {
      out.Fail(std::string("ingest: ") + corpus[c].dataset + " does not round-trip");
    }
  }
  std::string rejected_as;
  if (!CorruptedCopyRejected(reference.front(), &rejected_as)) {
    out.Fail("ingest: Open accepted a corrupted column");
  }
  out.Report("corruption_check", 1, "-", "rejected: " + rejected_as);
  ReleaseFreedMemory();

  // One operation = the whole corpus through compress + open. *cpu_ns
  // gets the CPU time of every thread during each operation, *peak_mb the
  // resident-set peak each operation reaches.
  auto ingest_loop = [&](double seconds, Tracer* t, Samples* latency_us,
                         Samples* cpu_ns, Samples* peak_mb) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t op = 0;
    do {
      ResetPeakRss();
      const int64_t cpu_start = ProcessCpuNs();
      ScopedSpan root(t, "ingest.corpus", op);
      std::vector<std::vector<uint8_t>> outputs(corpus.size());
      std::vector<bool> opened(corpus.size());
      for (size_t c = 0; c < corpus.size(); ++c) {
        {
          ScopedSpan s(t, "alp.compress_parallel", op);
          outputs[c] = alp::CompressColumnParallel(corpus[c].values.data(),
                                                   corpus[c].values.size(), {},
                                                   nullptr, &pool);
        }
        ScopedSpan s(t, "alp.open_parallel", op);
        opened[c] = alp::ColumnReader<double>::OpenParallel(
                        outputs[c].data(), outputs[c].size(), &pool)
                        .ok();
      }
      latency_us->Add(root.Stop() / 1e3);
      cpu_ns->Add(static_cast<double>(ProcessCpuNs() - cpu_start));
      peak_mb->Add(PeakRssMb());
      ++out.attempted;
      for (size_t c = 0; c < corpus.size(); ++c) {
        if (!opened[c] || outputs[c] != reference[c]) {
          out.Fail(std::string("ingest: ") + corpus[c].dataset +
                   " compressed differently or failed to open");
        }
      }
      ++op;
    } while (NowNs() < deadline);
  };

  const double measure_s = tracer ? 0.4 * options.seconds : options.seconds;
  Samples latency_us;
  Samples cpu_ns;
  Samples peak_mb;
  ingest_loop(measure_s, nullptr, &latency_us, &cpu_ns, &peak_mb);
  const double cpu_ns_per_value = cpu_ns.Median() / (raw_bytes / 8.0);
  // Wall throughput over the median pass, so one stalled pass does not
  // move it.
  const double mb_s = raw_bytes / latency_us.Median();
  std::string tail;
  const double tail_us = latency_us.Tail(&tail);

  out.end_to_end["setup_s"] = {setup.Median(), "s"};
  out.end_to_end["peak_rss_mb"] = {peak_mb.Median(), "MB"};
  out.end_to_end["bits_per_value"] = {8.0 * compressed_bytes / (raw_bytes / 8.0), "bits"};
  out.end_to_end["cpu_ns_per_value"] = {cpu_ns_per_value, "ns/value"};
  out.Figure("ingest_mb_s", mb_s, "MB/s",
             "compress+open on " + std::to_string(options.threads) + " threads");
  out.Report("bits_per_value", out.end_to_end["bits_per_value"].value, "bits");
  out.Report("cpu_ns_per_value", cpu_ns_per_value, "ns/value",
             "all threads, median pass");
  out.Report("corpus_p50_us", latency_us.Median(), "us",
             "n=" + std::to_string(latency_us.size()) + " passes");
  out.Report("corpus_" + tail + "_us", tail_us, "us");
  out.Report("setup_s", setup.Median(), "s",
             "process CPU, median of " + std::to_string(kSetupRepeats));
  out.Report("failed_share", out.failed / std::max(1.0, double(out.attempted)), "share");
  out.Report("peak_rss_mb", peak_mb.Median(), "MB",
             "median pass; highest " + std::to_string(peak_mb.Quantile(1.0)) + " MB");

  if (tracer == nullptr) return out;

  // Traced pass of the same loop: its slowdown is the tracing overhead.
  Samples traced_us;
  Samples traced_cpu_ns;
  Samples traced_peak_mb;
  ingest_loop(0.3 * options.seconds, tracer, &traced_us, &traced_cpu_ns,
              &traced_peak_mb);
  out.TraceOverhead(traced_us.Median(), latency_us.Median());

  // The write path layer by layer, against the same path as one serial call.
  std::vector<alp::EncodedVector<double>> scratch(alp::kRowgroupSize / alp::kVectorSize);
  WriteSplit split;
  const int64_t deadline = NowNs() + static_cast<int64_t>(0.3 * options.seconds * 1e9);
  uint64_t request = 0;
  do {
    for (const Column& c : corpus) SplitWritePath(c, request++, tracer, &scratch, &split);
  } while (NowNs() < deadline);

  const double v = split.values;
  const double parts = split.sample_ns + split.encode_ns + split.rd_encode_ns +
                       split.pack_ns + split.checksum_ns;
  out.Layer("alp.sample_ns_per_value", split.sample_ns / v, "ns/value");
  const double alp_values = std::max(1.0, split.alp_values);
  const double rd_values = std::max(1.0, split.rd_values);
  out.Layer("alp.encode_ns_per_value", split.encode_ns / alp_values, "ns/value");
  out.Layer("alp.rd_encode_ns_per_value", split.rd_encode_ns / rd_values, "ns/value");
  out.Layer("fastlanes.ffor_pack_ns_per_value", split.pack_ns / alp_values, "ns/value");
  out.Layer("util.checksum_ns_per_byte", split.checksum_ns / split.bytes, "ns/byte");
  out.Layer("alp.compress_residual_ns_per_value", (split.compress_ns - parts) / v,
            "ns/value");
  out.Layer("alp.open_ns_per_value", split.open_ns / v, "ns/value");
  out.Layer("alp.exceptions_per_vector", info.ExceptionsPerVector(), "count");
  out.Layer("alp.rd_rowgroup_share", double(info.rowgroups_rd) / info.rowgroups, "share");
  out.Layer("alp.sampler_combinations_per_vector",
            double(info.sampler.combinations_tried) / std::max<size_t>(1, info.vectors),
            "count");
  // Serial compress + open over the same values, against nproc threads.
  const double serial_us_per_corpus =
      (split.compress_ns + split.open_ns) / 1e3 * (raw_bytes / 8.0) / v;
  out.Layer("util.pool_efficiency.ingest",
            serial_us_per_corpus / (latency_us.Median() * options.threads), "share");
  // CompressColumn checksums its rowgroups inside the call; the split times
  // Checksum64 over the call's output as that part's stand-in.
  out.ledger.AddDecomposition(
      "write.compress_serial", "ns/value", split.compress_ns / v,
      {{"alp.sample", split.sample_ns / v},
       {"alp.encode", split.encode_ns / v},
       {"alp.rd_encode", split.rd_encode_ns / v},
       {"fastlanes.ffor_pack", split.pack_ns / v},
       {"util.checksum", split.checksum_ns / v}});
  return out;
}

}  // namespace perfbench
