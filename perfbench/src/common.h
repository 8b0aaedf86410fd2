#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

/// \file common.h
/// Shared plumbing of the end-to-end benchmark: run options, timing,
/// sample sets with the percentile rule, and the per-workload outcome that
/// main.cc turns into the result line.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread) or of the calling thread.
/// Unlike wall time it leaves out time the host took the virtual CPUs away
/// (steal), which on a shared host moves wall-clock figures by tens of
/// percent from one minute to the next.
inline int64_t CpuNs(clockid_t clock) {
  timespec t;
  clock_gettime(clock, &t);
  return int64_t{t.tv_sec} * 1000000000 + t.tv_nsec;
}
inline int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }
inline int64_t ThreadCpuNs() { return CpuNs(CLOCK_THREAD_CPUTIME_ID); }

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Tiny inputs and short phases: the self-test mode, and the size at
  /// which a traced run covers the workloads it is not named after.
  bool small = false;
  unsigned threads = 1;  ///< nproc: engine pool and ingest pool size.
};

/// A set of timings (or any samples) with the benchmark's percentile rule.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank quantile q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  double Median() const { return Quantile(0.5); }

  /// The highest of p99 / p95 / p90 / p50 that still has at least ten
  /// samples beyond it; *label names the one chosen. Only human-readable
  /// lines use it: a metric's percentile is fixed by its name, so its
  /// meaning never changes with the sample count.
  double Tail(std::string* label) const {
    static const std::pair<double, const char*> kTails[] = {
        {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.50, "p50"}};
    for (const auto& [q, name] : kTails) {
      if ((1.0 - q) * static_cast<double>(values_.size()) >= 10.0) {
        *label = name;
        return Quantile(q);
      }
    }
    *label = "max";
    return Quantile(1.0);
  }

 private:
  std::vector<double> values_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. End-to-end metrics use the names every
/// workload shares; per-layer metrics are those this workload is the
/// source of (BENCHMARK.json's per_layer list, see README.md).
struct Outcome {
  std::string workload;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// The workload's own figures under the names used in README.md
  /// (ingest_mb_s, lookup_p99_us, ...), printed for people, not parsed.
  std::vector<std::string> report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few correctness failures.
  Ledger ledger;

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void Report(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    char line[256];
    std::snprintf(line, sizeof(line), "%-34s %14.6g %-8s %s", name.c_str(),
                  value, unit.c_str(), note.c_str());
    report.emplace_back(line);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// trace.overhead_share: the traced loop's median operation time over
  /// the untraced one's, minus one. Also printed with the workload's name,
  /// so a traced run shows which loop the metric came from.
  void TraceOverhead(double traced, double untraced) {
    const double share = traced / untraced - 1.0;
    Report("trace.overhead_share", share, "share", "from " + workload);
    Layer("trace.overhead_share", share, "share");
  }
  /// A user-facing figure of this workload under its README name: printed,
  /// and carried in traced runs as the per-layer metric "<workload>.<name>".
  void Figure(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    Report(name, value, unit, note);
    Layer(workload + "." + name, value, unit);
  }
};

/// setup_s is the median over this many repeated set-ups of the process
/// CPU time one set-up takes (every thread, so work a set-up hands to a
/// pool counts too, and host steal does not).
inline constexpr int kSetupRepeats = 5;

/// Relative tolerance for floating-point aggregates against the one-thread
/// oracle: |got - want| <= kSumTolerance * sum(|x|) over the summed terms.
inline constexpr double kSumTolerance = 1e-9;

inline bool SumWithinTolerance(double got, double want, double abs_sum) {
  if (std::isnan(want)) return std::isnan(got);
  return std::fabs(got - want) <= kSumTolerance * abs_sum + 1e-300;
}

/// \p n values of the named dataset, generated as eight independently
/// seeded segments: a random-walk dataset drifts differently per seed, and
/// mixing segments narrows how much the work per value varies with it.
std::vector<double> GenerateColumn(const char* dataset, size_t n, uint64_t seed);

/// Hands the heap memory freed so far back to the kernel. glibc keeps large
/// freed blocks resident, so without this the input and oracle copies a
/// set-up drops would still count in the measured loop's resident set.
void ReleaseFreedMemory();

/// Resets the process's resident-set high-water mark to its current size
/// (Linux /proc/self/clear_refs, mode 5), so the next PeakRssMb covers only
/// what runs after it. False where the kernel does not allow it; the peak
/// then covers set-up too (stamped in the env line).
bool ResetPeakRss();

/// Peak resident set of this process in MB since the last ResetPeakRss
/// (VmHWM; the getrusage high-water mark where /proc is unavailable).
double PeakRssMb();

/// Flips one payload byte of a copy of \p compressed and returns whether
/// ColumnReader::Open rejected it (the live proof of the integrity check).
bool CorruptedCopyRejected(const std::vector<uint8_t>& compressed,
                           std::string* status_text);

Outcome RunIngest(const Options& options, Tracer* tracer);
Outcome RunAnalytics(const Options& options, Tracer* tracer);
Outcome RunServing(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
