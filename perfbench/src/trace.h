#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file trace.h
/// Spans recorded by the benchmark around its own calls into the library's
/// public functions — never from inside the library — and the per-layer
/// ledger built from them.
///
/// A span has a name "<layer>.<call>", start and end (steady-clock ns), the
/// span it nests in, and the id of the request or operation it belongs to.
/// Spans stay in memory and are written out when the run ends. Only the
/// benchmark's driving thread records (the ingest loop, the analytics
/// client, the serving load generator), so the recorder takes no lock.

namespace perfbench {

struct Span {
  const char* name = "";     ///< String literal, "<layer>.<call>".
  int64_t start_ns = 0;
  int64_t end_ns = -1;       ///< -1 while open.
  uint32_t parent = 0;       ///< 1-based index of the parent; 0 = root.
  uint64_t request = 0;      ///< Operation / request id.
};

/// One traced path: every root span of one name, with its time split into
/// the self time of each layer below it and an explicit residual (the
/// roots' own self time, which no layer span covers).
struct LedgerPath {
  std::string root;
  uint64_t count = 0;
  int64_t total_ns = 0;
  std::map<std::string, int64_t> layer_self_ns;
  int64_t residual_ns = 0;
};

/// A whole call timed against its parts timed in separate calls on the same
/// input (the parts have no public call inside the whole). The residual is
/// what the parts do not explain; it may be negative.
struct Decomposition {
  std::string name;
  std::string unit;
  double total = 0.0;
  std::map<std::string, double> parts;
  double residual = 0.0;
};

struct Ledger {
  std::vector<LedgerPath> paths;
  std::vector<Decomposition> decompositions;
  std::vector<std::string> problems;  ///< Nesting or sum violations.

  void AddDecomposition(const std::string& name, const std::string& unit,
                        double total, std::map<std::string, double> parts);
  /// Checks, for every path, that layers plus residual equal the total,
  /// and the same for every decomposition; records any violation.
  bool Check();
  std::string ToJson() const;
};

class Tracer {
 public:
  /// Opens a span nested in the innermost open one; returns its id (0 when
  /// the span budget is spent).
  uint32_t Open(const char* name, uint64_t request, int64_t start_ns);
  void Close(uint32_t id, int64_t end_ns);
  /// Adds a closed span with explicit times under \p parent (used for
  /// intervals the program itself reports, e.g. a response's queue time).
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint64_t request);

  size_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Builds the ledger of every root path recorded so far.
  Ledger BuildLedger() const;
  /// Writes one JSON object per span; false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  static constexpr size_t kMaxSpans = size_t{4} << 20;

  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  ///< Stack of open span ids.
  size_t dropped_ = 0;
};

/// RAII span on the driving thread. A null tracer means tracing is off; the
/// span still times itself, so one code path yields the span and the timing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0);
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now (idempotent) and returns its duration in ns.
  int64_t Stop();

 private:
  Tracer* tracer_;
  uint32_t id_ = 0;
  int64_t start_ns_;
  int64_t elapsed_ns_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
