#ifndef ALP_IO_SEEKABLE_READER_H_
#define ALP_IO_SEEKABLE_READER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/predicate.h"
#include "alp/pushdown.h"
#include "io/decoded_vector_cache.h"
#include "io/random_access_source.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// \file seekable_reader.h
/// Out-of-core column reader: the storage-backed sibling of
/// ColumnReader<T>. Where ColumnReader requires the whole compressed
/// buffer in memory up front, SeekableReader holds only the column's
/// header/index region (offsets, per-rowgroup checksums, zone map) and
/// fetches rowgroup *chunks* — the bytes between consecutive rowgroup
/// offsets — on demand from a RandomAccessSource. That is what lets a
/// column far larger than RAM scan to completion and a point lookup touch
/// only the one rowgroup it needs.
///
/// Chunk lifecycle (DESIGN.md "Out-of-core reads"):
///   cache lookup  →  on a miss: fetch (ReadAt, or an in-place View of a
///   memory source)  →  verify (XXH64 vs the indexed checksum, v3)
///     →  open (ColumnReader::OpenRowgroupChunk: full structural walk)
///     →  publish (the verified bytes and the parsed chunk reader go into
///        the DecodedVectorCache as one entry)
///   then, hit or miss: decode (the same bounds-checked TryDecodeVector as
///   in-memory, straight into the caller's buffer) or packed-evaluate.
/// A failure at any stage aborts before the next one, so nothing
/// unverified is ever decoded and nothing unverified or unopened is ever
/// cached — corruption surfaces as the same Status class the in-memory
/// validator would report and can never poison the cache. A hit re-runs
/// neither the checksum nor the walk.
///
/// The per-rowgroup checksum is what makes this shape possible at all:
/// rowgroups are position-independent, individually verifiable split
/// points, so a seek lands on a self-contained unit. A gzip-style stream
/// would instead have to chase window state across chunk boundaries
/// (rapidgzip's WindowMap exists to patch exactly that problem away).
///
/// Chunk bytes: a source that lends zero-copy Views (MemorySource,
/// OwnedMemorySource) is checksummed and decoded in place and the cache
/// entry pins the source; mmap and pread chunks are copied first, because
/// the file can change after its chunk was verified.
///
/// Concurrency: all read APIs are const and safe from any number of
/// threads; mutable state is confined to the shared DecodedVectorCache
/// (internally locked) and per-call locals. The background prefetcher
/// schedules chunk reads on a ThreadPool via TrySubmit — a saturated or
/// shutting-down pool refuses, and the scan degrades to synchronous
/// reads rather than queueing unbounded or deadlocking.
///
/// Cancellation: a non-null OpContext is polled per vector on every path,
/// exactly like ColumnReader::TryDecodeAll. Prefetch tasks themselves
/// never observe the caller's context (they outlive the call on purpose);
/// an abandoned prefetched chunk is simply dropped, and because only the
/// consume path publishes to the cache, cancellation mid-prefetch cannot
/// leave a partial entry behind.
///
/// Fault sites (behind ALP_FAULTS): `io.chunk_read` fires on every cache
/// miss before the chunk's bytes are used (deterministic regardless of
/// whether the prefetcher or the caller fetched them); `io.cache_evict`
/// lives in DecodedVectorCache::Insert. Obs: `io.cache_lookup`,
/// `io.chunk_fetch` (source reads) and `io.chunk_open` spans, `io.cache.*`
/// counters (one hit or miss per chunk), and the `io.prefetch.depth` gauge
/// of outstanding prefetched chunks.

namespace alp::io {

struct SeekableReaderOptions {
  /// Pool for background chunk prefetch; null disables prefetching (every
  /// chunk is read synchronously on first touch). Do not pass a pool whose
  /// workers are permanently occupied (e.g. a serving layer's own worker
  /// pool): prefetch tasks would never run and scans would stall waiting
  /// on them.
  ThreadPool* prefetch_pool = nullptr;

  /// How many rowgroups past the one being consumed a scan keeps in
  /// flight. 0 disables prefetching even with a pool.
  size_t prefetch_rowgroups = 4;

  /// TrySubmit bound: prefetch is refused (and the scan degrades to a
  /// synchronous read) once the pool already has this many queued tasks.
  size_t prefetch_queue_limit = 64;

  /// Shared chunk cache; null (or a capacity-0 cache) disables caching.
  /// The cache must outlive the reader.
  DecodedVectorCache* cache = nullptr;

  /// When non-empty, the reader registers per-column labeled cache
  /// counters — io.cache.hit{column="..."} / io.cache.miss{column="..."}
  /// — so per-column hit ratios fall out of one snapshot (the unlabeled
  /// io.cache.* totals the cache itself maintains are unchanged).
  /// Registration happens once at Open; recording is the same lock-free
  /// counter fast path. Ignored under -DALP_OBS=OFF.
  std::string column_label;
};

template <typename T>
class SeekableReader {
 public:
  /// Fetches and fully verifies the header/index region (same checks and
  /// Statuses as ValidateColumnEx's header/index/zone-map phases; rowgroup
  /// payloads are verified lazily, chunk by chunk, as they are touched).
  /// The source is shared so prefetch tasks can outlive the caller.
  static StatusOr<std::shared_ptr<SeekableReader<T>>> Open(
      std::shared_ptr<RandomAccessSource> source,
      SeekableReaderOptions options = {});

  SeekableReader(const SeekableReader&) = delete;
  SeekableReader& operator=(const SeekableReader&) = delete;

  uint8_t format_version() const { return index_.version; }
  size_t value_count() const { return index_.value_count; }
  size_t vector_count() const { return index_.total_vectors; }
  size_t rowgroup_count() const { return index_.rowgroup_offsets.size(); }

  /// Process-unique identity of this reader, the cache-key namespace for
  /// its chunks (a re-opened column starts cold by construction).
  uint64_t column_id() const { return column_id_; }

  /// The parsed header/index region (tests aim corruption at chunk extents
  /// through this; the CLI surfaces it in diagnostics).
  const alp::internal::ColumnIndex& index() const { return index_; }

  unsigned VectorLength(size_t v) const;

  /// Zone map entry for vector \p v — served from the index region, no
  /// chunk fetch.
  const VectorStats& Stats(size_t v) const { return index_.stats[v]; }
  bool VectorMayContain(size_t v, double lo, double hi) const {
    return index_.stats[v].MayContain(lo, hi);
  }

  /// Receives each decoded vector in ascending order: \p values holds
  /// \p len values and is valid only during the call. A non-OK return
  /// aborts the scan and is returned as-is.
  using Visitor = std::function<Status(size_t v, const T* values, unsigned len)>;

  /// Vector-selection predicate for filtered scans (zone-map push-down):
  /// vectors where it returns false are neither fetched nor decoded, and a
  /// rowgroup none of whose vectors are wanted is never touched at all.
  using VectorFilter = std::function<bool(size_t v)>;

  /// Point lookup: decodes vector \p v into \p out (room for
  /// VectorLength(v) values), touching only its rowgroup — or no storage
  /// at all on a cache hit.
  Status TryDecodeVector(size_t v, T* out, const OpContext* ctx = nullptr) const;

  /// Decodes all of rowgroup \p rg contiguously into \p out with at most
  /// one chunk fetch (none on a cache hit).
  Status TryDecodeRowgroup(size_t rg, T* out, const OpContext* ctx = nullptr) const;

  /// Full-column decode into \p out (room for value_count() values);
  /// byte-identical to ColumnReader::TryDecodeAll on the same file.
  Status TryDecodeAll(T* out, const OpContext* ctx = nullptr) const;

  /// Streaming scan: rowgroups are fetched (and, with a pool, prefetched
  /// ahead) one at a time, so peak memory is the index region plus the
  /// prefetch window — never the whole column. \p want as in VectorFilter
  /// (null scans everything).
  Status Scan(const Visitor& visit, const OpContext* ctx = nullptr,
              const VectorFilter* want = nullptr) const;

  /// One rowgroup's worth of Scan (the serving layer's unit of work).
  Status VisitRowgroup(size_t rg, const Visitor& visit,
                       const OpContext* ctx = nullptr,
                       const VectorFilter* want = nullptr) const;

  /// Compressed-domain FILTER+SUM over rowgroup \p rg (double columns
  /// only; non-double readers return kInvalidArgument). The resident zone
  /// map drops disjoint vectors before any chunk fetch — a rowgroup none
  /// of whose vectors qualify is never read — and surviving vectors are
  /// evaluated on their FFOR-packed lanes inside the fetched chunk
  /// (alp/pushdown.h), adding the rowgroup's partial (its vectors' striped
  /// survivor sums, in vector order) to *sum, bit-identical to filtering
  /// the decoded values. A cached chunk is evaluated the same way, in
  /// place. \p counters accumulates the per-vector outcome mix.
  Status FilterSumRowgroup(size_t rg, const TranslatedPredicate& pred,
                           double* sum, pushdown::VectorCounters* counters,
                           const OpContext* ctx = nullptr) const;

  /// Logical values stored in rowgroup \p rg.
  uint64_t RowgroupValueCount(size_t rg) const;

 private:
  struct PrefetchSlot;
  struct Chunk;

  SeekableReader(std::shared_ptr<RandomAccessSource> source,
                 SeekableReaderOptions options,
                 alp::internal::ColumnIndex index);

  /// [begin, end) byte extent of rowgroup \p rg in the file.
  void ChunkExtent(size_t rg, uint64_t* begin, uint64_t* end) const;

  /// Rowgroup \p rg's verified, opened chunk: the cached entry on a hit;
  /// on a miss the bytes come from \p prefetched when the prefetcher
  /// delivered them, else from an in-place View or a synchronous ReadAt,
  /// then pass the io.chunk_read fault site, the XXH64 verification and
  /// the structural open before they are published to the cache. Polls
  /// \p ctx first, so a dead request touches no storage.
  Status AcquireChunk(size_t rg, const std::shared_ptr<PrefetchSlot>& prefetched,
                      const OpContext* ctx,
                      std::shared_ptr<const Chunk>* chunk) const;

  /// Decodes vectors [\p lv_begin, \p lv_end) of rowgroup \p rg (chunk-local
  /// indexes) from \p chunk into \p out, contiguously.
  Status DecodeChunkVectors(const Chunk& chunk, size_t rg, size_t lv_begin,
                            size_t lv_end, T* out, const OpContext* ctx) const;

  /// Scan's rowgroup loop with the prefetch window: calls \p fn(rg, slot)
  /// for every rowgroup with a wanted vector, in order, stopping at the
  /// first non-OK Status.
  template <typename Fn>
  Status ForEachRowgroup(const VectorFilter* want, Fn&& fn) const;

  /// Schedules a background read of rowgroup \p rg; returns null when the
  /// pool refused (saturated or shutting down) — the caller falls back to
  /// a synchronous read.
  std::shared_ptr<PrefetchSlot> SchedulePrefetch(size_t rg) const;

  Status VisitRowgroupImpl(size_t rg,
                           const std::shared_ptr<PrefetchSlot>& prefetched,
                           const Visitor& visit, const OpContext* ctx,
                           const VectorFilter* want) const;

  /// Whether any vector of rowgroup \p rg passes \p want.
  bool RowgroupWanted(size_t rg, const VectorFilter* want) const;

  /// Vectors in rowgroup \p rg.
  size_t RowgroupVectorCount(size_t rg) const;

  std::shared_ptr<RandomAccessSource> source_;
  SeekableReaderOptions options_;
  alp::internal::ColumnIndex index_;
  uint64_t column_id_;
  mutable std::atomic<int64_t> prefetch_outstanding_{0};
  /// Labeled per-column cache counters (see SeekableReaderOptions::
  /// column_label); null when unlabeled or ALP_OBS is off.
  obs::Counter* labeled_cache_hits_ = nullptr;
  obs::Counter* labeled_cache_misses_ = nullptr;
};

}  // namespace alp::io

#endif  // ALP_IO_SEEKABLE_READER_H_
