// End-to-end benchmark of the ALP library's write, read and serving paths.
//
//   perfbench --workload ingest|analytics|serving --seed N --seconds S
//             --trace 0|1 [--small] [--out DIR]
//
// With --trace 0 the workload runs untraced and the last stdout line is the
// result object with the end-to-end metrics. With --trace 1 the named
// workload runs once untraced and once traced (the difference is the
// tracing overhead), the other two workloads run traced at their small
// size, and the result carries every per-layer metric; the span file and
// the ledger are written to DIR. See README.md for the workloads and the
// metric map.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/kernel_dispatch.h"
#include "common.h"
#include "data/datasets.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"

namespace perfbench {

std::vector<double> GenerateColumn(const char* dataset, size_t n, uint64_t seed) {
  constexpr size_t kSegments = 8;
  const alp::data::DatasetSpec* spec = alp::data::FindDataset(dataset);
  std::vector<double> values;
  values.reserve(n);
  for (size_t k = 0; k < kSegments; ++k) {
    const size_t len = n * (k + 1) / kSegments - n * k / kSegments;
    const std::vector<double> part =
        alp::data::Generate(*spec, len, seed * kSegments + k);
    values.insert(values.end(), part.begin(), part.end());
  }
  return values;
}

void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

bool CorruptedCopyRejected(const std::vector<uint8_t>& compressed,
                           std::string* status_text) {
  std::vector<uint8_t> copy = compressed;
  copy[copy.size() / 2] ^= 0x5A;  // Past the header and index: payload.
  auto reader = alp::ColumnReader<double>::Open(copy.data(), copy.size());
  *status_text = reader.ok() ? "accepted" : reader.status().ToString();
  return !reader.ok();
}

namespace {

unsigned Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

std::string EnvOrNone(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "" : v;
}

std::string EnvStamp(unsigned nproc) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"kernel_tier\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\","
                "\"perf\":\"%s\",\"ALP_FORCE_KERNEL\":\"%s\","
                "\"ALP_THREADS\":\"%s\",\"peak_rss_after_setup\":%s}",
                alp::kernels::ActiveTierName(), nproc, PERFBENCH_BUILD_TYPE,
                alp::obs::PerfAvailabilityName(
                    alp::obs::PerfProbe().availability),
                EnvOrNone("ALP_FORCE_KERNEL").c_str(),
                EnvOrNone("ALP_THREADS").c_str(),
                ResetPeakRss() ? "true" : "false");
  return buf;
}

Outcome RunWorkload(const std::string& name, const Options& options,
                    Tracer* tracer) {
  if (name == "ingest") return RunIngest(options, tracer);
  if (name == "analytics") return RunAnalytics(options, tracer);
  return RunServing(options, tracer);
}

void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|analytics|serving "
               "--seed N --seconds S --trace 0|1 [--small] [--out DIR]\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string workload;
  bool trace = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  const std::vector<std::string> kWorkloads = {"ingest", "analytics", "serving"};
  bool known = false;
  for (const auto& w : kWorkloads) known |= w == workload;
  if (!known || options.seconds <= 0.0) return Usage();

  // Timed runs measure the library as shipped: its own telemetry must be
  // off, or every hot-path site pays for recording.
  if (alp::obs::Enabled()) {
    std::fprintf(stderr,
                 "perfbench: the library's telemetry gate is on "
                 "(ALP_OBS_ENABLE=%s); unset it for timed runs\n",
                 EnvOrNone("ALP_OBS_ENABLE").c_str());
    return 3;
  }

  options.threads = Nproc();
  const std::string env = EnvStamp(options.threads);
  std::printf("env: %s\n", env.c_str());

  Tracer tracer;
  std::vector<Outcome> outcomes;
  outcomes.push_back(RunWorkload(workload, options, trace ? &tracer : nullptr));
  if (trace) {
    // Cover the other two paths too, so every per-layer metric is measured
    // in every traced run.
    for (const auto& w : kWorkloads) {
      if (w == workload) continue;
      Options small = options;
      small.small = true;
      small.seconds = std::min(options.seconds, 10.0) * 0.15;
      outcomes.push_back(RunWorkload(w, small, &tracer));
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> per_layer;
  Ledger ledger;
  bool ledger_ok = true;
  if (trace) ledger = tracer.BuildLedger();
  for (const Outcome& o : outcomes) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& line : o.report) std::printf("  %s\n", line.c_str());
    for (const auto& e : o.errors) std::printf("FAILED: %s\n", e.c_str());
    for (const auto& d : o.ledger.decompositions) ledger.decompositions.push_back(d);
  }
  // A name more than one workload emits (trace.overhead_share) is the named
  // workload's: merge it last so its values win.
  for (auto o = outcomes.rbegin(); o != outcomes.rend(); ++o) {
    for (const auto& [name, m] : o->per_layer) per_layer[name] = m;
  }
  if (trace) {
    ledger_ok = ledger.Check();
    const std::string stem = out_dir + "/" + workload + "-seed" +
                             std::to_string(options.seed);
    const std::string ledger_path = stem + ".ledger.json";
    std::FILE* f = std::fopen(ledger_path.c_str(), "w");
    const bool spans_ok = tracer.WriteSpans(stem + ".spans.jsonl");
    if (f == nullptr || !spans_ok) {
      std::fprintf(stderr, "perfbench: cannot write the trace under %s\n",
                   out_dir.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fprintf(f, "{\"env\":%s,\"spans\":%zu,\"spans_dropped\":%zu,\"ledger\":%s}\n",
                 env.c_str(), tracer.spans().size(), tracer.dropped(),
                 ledger.ToJson().c_str());
    std::fclose(f);
    std::printf("ledger: %s (%zu spans, %s)\n", ledger_path.c_str(),
                tracer.spans().size(), ledger_ok ? "adds up" : "DOES NOT ADD UP");
    for (const auto& p : ledger.problems) std::printf("LEDGER: %s\n", p.c_str());
    for (const LedgerPath& p : ledger.paths) {
      std::printf("  path %-22s n=%-7llu total %10.3f ms  residual %7.3f%%",
                  p.root.c_str(), static_cast<unsigned long long>(p.count),
                  p.total_ns / 1e6,
                  100.0 * p.residual_ns / std::max<int64_t>(1, p.total_ns));
      for (const auto& [layer, ns] : p.layer_self_ns) {
        std::printf("  %s %.1f%%", layer.c_str(),
                    100.0 * ns / std::max<int64_t>(1, p.total_ns));
      }
      std::printf("\n");
    }
    for (const Decomposition& d : ledger.decompositions) {
      std::printf("  split %-22s total %10.3f %s  residual %10.3f", d.name.c_str(),
                  d.total, d.unit.c_str(), d.residual);
      for (const auto& [part, v] : d.parts) std::printf("  %s %.3f", part.c_str(), v);
      std::printf("\n");
    }
  }

  const bool correct = failed == 0 && ledger_ok;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetrics(trace ? per_layer : outcomes.front().end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
