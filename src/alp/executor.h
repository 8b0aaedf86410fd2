#ifndef ALP_ALP_EXECUTOR_H_
#define ALP_ALP_EXECUTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "alp/column.h"
#include "alp/constants.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "util/aligned_buffer.h"
#include "util/cancellation.h"
#include "util/status.h"

/// \file executor.h
/// The one query executor: the paper's Tectorwise loop (Section 4.3) of
/// zone map → skip, or decode / packed-evaluate → aggregate, one vector at
/// a time, written once over one VectorSource that every storage kind
/// implements. The engine operators run the per-rowgroup bodies below on
/// the morsel loop (engine/morsel.h), the server runs them in a serial
/// rowgroup loop on its own workers, and io::SeekableReader::
/// FilterSumRowgroup wraps one for a single rowgroup.
///
/// The filtering bodies consult the source's zone map first and lend a
/// rowgroup only once one of its vectors survives, so a zone-disjoint
/// rowgroup is never read, fetched or decoded. Lend is the one virtual
/// call per rowgroup; the vector loop is then compiled for the kind of
/// vectors lent — validated ALP vectors or plain values — so nothing
/// dispatches per vector. The caller polls its OpContext per rowgroup;
/// vectors lent from a fetched chunk are also polled one by one and decode
/// through the column.decode_vector fault site. Sums follow the summation
/// contract of alp/pushdown.h: each body adds its vectors' striped sums, in
/// vector order, to the caller's rowgroup slot.

namespace alp::exec {

/// How FILTER queries evaluate vectors that survive the zone map. Both
/// modes equal the SurvivorSum oracle of alp/pushdown.h bit for bit.
enum class FilterMode {
  /// Compressed-domain execution: the translated predicate runs on
  /// FFOR-packed lanes and only survivors are materialized; vectors the
  /// packed path cannot serve (ALP_rd, Delta, non-ALP storage) decode
  /// then filter.
  kAuto,
  /// Decode every surviving vector, then select + compact + striped sum:
  /// the oracle the packed path is measured and tested against.
  kDecodeThenFilter,
};

/// One rowgroup's vectors as a source lends them.
struct RowgroupLease {
  /// Validated ALP vectors of this reader, or null for plain values.
  const ColumnReader<double>* reader = nullptr;
  /// `reader` index of the rowgroup's first vector (0 for a chunk reader).
  size_t first_vector = 0;
  /// From a fetched chunk: each vector is polled and decoded through
  /// DecodeChunkVector.
  bool chunk = false;
  /// File offset of the chunk's first byte (chunk leases only).
  uint64_t chunk_offset = 0;
  /// The rowgroup's values when `reader` is null.
  const double* values = nullptr;
  /// Keeps a cached chunk alive while the body reads it.
  std::shared_ptr<const void> pin;
};

/// What a body reuses across the rowgroups one worker runs.
struct Scratch {
  pushdown::EvalScratch eval;
  /// Buffers for sources that materialize whole rowgroups (block codecs),
  /// one per column a body reads; sized on first use.
  AlignedBuffer<double> rowgroups[3];
  pushdown::VectorCounters counters;
};

/// A column's rowgroups, lent one at a time. Implementations: the
/// in-memory ALP, uncompressed and block-codec sources of
/// engine/column_store.cc, and io::SeekableSource (ALP in verified chunks).
class VectorSource {
 public:
  virtual ~VectorSource() = default;

  size_t value_count() const { return value_count_; }
  size_t vector_count() const {
    return (value_count_ + kVectorSize - 1) / kVectorSize;
  }
  size_t rowgroup_count() const {
    return (value_count_ + kRowgroupSize - 1) / kRowgroupSize;
  }
  unsigned RowgroupLength(size_t rg) const {
    return static_cast<unsigned>(
        std::min<size_t>(kRowgroupSize, value_count_ - rg * kRowgroupSize));
  }
  unsigned VectorLength(size_t v) const {
    return static_cast<unsigned>(
        std::min<size_t>(kVectorSize, value_count_ - v * kVectorSize));
  }

  /// One VectorStats per vector, or null when the storage keeps no zone
  /// map. Reading it never touches the data.
  const VectorStats* zone_map() const { return zone_map_; }

  /// Lends rowgroup \p rg. A source that must materialize the rowgroup
  /// decodes into \p buffer (sizing it to kRowgroupSize first if empty);
  /// the lease is valid until \p buffer is reused.
  virtual Status Lend(size_t rg, const OpContext* ctx, AlignedBuffer<double>* buffer,
                      RowgroupLease* lease) const = 0;

 protected:
  VectorSource(size_t value_count, const VectorStats* zone_map)
      : value_count_(value_count), zone_map_(zone_map) {}

 private:
  size_t value_count_;
  const VectorStats* zone_map_;
};

/// SCAN: produces every vector of rowgroup \p rg — into out + lv *
/// kVectorSize when \p out is non-null, else into scratch — and adds each
/// one's first value to *checksum, in vector order.
Status ScanRowgroup(const VectorSource& source, size_t rg, const OpContext* ctx,
                    Scratch* scratch, double* out, double* checksum);

/// SUM: adds each vector's striped sum to *sum. ALP vectors decode one at
/// a time into a vector-sized scratch, never a rowgroup buffer.
Status SumRowgroup(const VectorSource& source, size_t rg, const OpContext* ctx,
                   Scratch* scratch, double* sum);

/// FILTER + SUM: zone-map skip, then under kAuto the full-inside fast path
/// or packed evaluation for ALP vectors; every other surviving vector
/// decodes, then select + compact + striped sum. Both modes add the same
/// bits to *sum.
Status FilterSumRowgroup(const VectorSource& source, size_t rg,
                         const TranslatedPredicate& pred, FilterMode mode,
                         const OpContext* ctx, Scratch* scratch, double* sum);

/// MIN/MAX of rowgroup \p rg, folded in row order and ignoring NaNs
/// (+inf / -inf when it holds no other value). A source with a zone map
/// answers from it and lends nothing.
Status MinMaxRowgroup(const VectorSource& source, size_t rg, const OpContext* ctx,
                      Scratch* scratch, double* min, double* max);

/// SUM(a * b) WHERE filter matches \p pred over rowgroup \p rg: the filter
/// column's zone map skips vectors before any column is lent; survivors get
/// a selection bitmap (on packed lanes under kAuto). a and b are lent only
/// when some vector selects a row, and only the selected lanes of a and b
/// are materialized.
Status DotSumRowgroup(const VectorSource& filter, const VectorSource& a,
                      const VectorSource& b, size_t rg,
                      const TranslatedPredicate& pred, FilterMode mode,
                      const OpContext* ctx, Scratch* scratch, double* sum);

/// Point lookup: decodes vector \p v (below vector_count()) into \p out.
Status ReadVector(const VectorSource& source, size_t v, const OpContext* ctx,
                  Scratch* scratch, double* out);

/// The one decode of a vector of a fetched chunk, shared with
/// io::SeekableReader: decodes the chunk reader's vector \p lv into \p out
/// through the column.decode_vector fault site, rebases a failure's
/// chunk-relative offset by \p chunk_offset onto the file, and counts the
/// vector's ALP exceptions (decode.exceptions) on the flight recorder of
/// \p ctx's request. Polling \p ctx is the caller's.
template <typename T>
Status DecodeChunkVector(const ColumnReader<T>& reader, size_t lv,
                         uint64_t chunk_offset, const OpContext* ctx, T* out);

}  // namespace alp::exec

#endif  // ALP_ALP_EXECUTOR_H_
