#ifndef ALP_ENGINE_MORSEL_H_
#define ALP_ENGINE_MORSEL_H_

#include <atomic>
#include <mutex>
#include <vector>

#include "alp/executor.h"
#include "engine/operators.h"
#include "obs/flight_recorder.h"
#include "util/cycle_clock.h"
#include "util/fault_injection.h"

/// \file morsel.h
/// The engine's one morsel loop, shared by the single-column operators
/// (operators.cc) and the multi-column dot-sum (table.cc): each runs one
/// per-rowgroup body of the executor (alp/executor.h) per morsel.

namespace alp::engine::internal {

/// Runs \p per_rowgroup over the rowgroups of \p source, as morsels claimed
/// from a shared counter by the pool's workers. The callback signature is
/// Status(rg, scratch, partial): `scratch` is the worker's private
/// exec::Scratch, and the callback adds rowgroup rg's contribution to
/// *partial (from +0.0), which is then stored in a slot owned by that
/// rowgroup alone. After the join the slots are folded in rowgroup order,
/// so the sum depends only on the data — never on which worker claimed
/// which morsel, or on the thread count — and the workers' vector counters
/// are added into the result.
///
/// Cancellation/faults: before claiming each morsel a worker polls \p ctx
/// and the engine.rowgroup fault site, and the morsel body's own Status
/// feeds the same machinery. The first worker to observe a failure raises
/// the abort flag so the others stop claiming morsels; when several morsels
/// fail in one sweep the lowest-indexed one's Status is reported (matching
/// the first failure a serial scan would see).
template <typename PerRowgroup>
QueryResult RunMorsels(const exec::VectorSource& source, ThreadPool& pool,
                       const OpContext* ctx, const PerRowgroup& per_rowgroup) {
  const size_t rowgroups = source.rowgroup_count();
  std::atomic<size_t> next{0};
  std::vector<double> partials(rowgroups, 0.0);
  std::atomic<bool> abort{false};
  std::mutex mu;  // Guards the failure and the counter totals.
  size_t fail_rg = ~size_t{0};
  Status fail_status;
  pushdown::VectorCounters counters;

  const uint64_t start = CycleNow();
  pool.Run([&](unsigned) {
    // Each worker owns its scratch (vector-at-a-time consumers in
    // Tectorwise own their vector chunk); its rowgroup buffers are only
    // allocated by sources that materialize whole rowgroups.
    exec::Scratch scratch;
    while (!abort.load(std::memory_order_relaxed)) {
      const size_t rg = next.fetch_add(1, std::memory_order_relaxed);
      if (rg >= rowgroups) break;
      Status s = ctx != nullptr ? ctx->Check() : Status::Ok();
      if (s.ok()) s = fault::Check("engine.rowgroup");
      // Accumulate in a local and store once: neighbouring slots share a
      // cache line that other workers are writing.
      double partial = 0.0;
      if (s.ok()) s = per_rowgroup(rg, &scratch, &partial);
      partials[rg] = partial;
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (rg < fail_rg) {
          fail_rg = rg;
          fail_status = std::move(s);
        }
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    counters += scratch.counters;
  });
  const uint64_t cycles = CycleNow() - start;

#if ALP_OBS
  // Flight-recorder attribution happens here, after the join, from the
  // orchestrating thread only: the recorder is single-writer and the pool
  // workers above must never touch it (they also run without the ambient
  // attribution TLS, so their ScopedTimers stay recorder-free).
  if (ctx != nullptr && ctx->request != nullptr &&
      ctx->request->recorder != nullptr) {
    obs::FlightRecorder* recorder = ctx->request->recorder;
    recorder->Annotate("engine.rowgroups", rowgroups);
    recorder->Annotate("engine.threads", pool.size());
    recorder->Span("engine.parallel", start, start + cycles, source.value_count());
  }
#endif

  QueryResult result;
  result.status = std::move(fail_status);
  for (double p : partials) result.sum += p;
  result.cycles = cycles;
  result.tuples = source.value_count();
  result.threads = pool.size();
  result.vectors_skipped = counters.skipped;
  result.vectors_packed_eval = counters.packed_eval;
  result.vectors_full_inside = counters.full_inside;
  return result;
}

}  // namespace alp::engine::internal

#endif  // ALP_ENGINE_MORSEL_H_
