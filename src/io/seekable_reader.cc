#include "io/seekable_reader.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "alp/constants.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/fault_injection.h"

namespace alp::io {
namespace {

/// Cache-key namespace allocator: every opened reader gets a fresh id, so
/// cache entries can never alias across readers (or across re-opens of the
/// same file — a reopened column starts cold, which is the conservative
/// choice when the file may have been rewritten in between).
std::atomic<uint64_t> g_next_column_id{1};

/// sizeof(ColumnHeader): the fixed prefix that sizes the index region.
constexpr size_t kColumnHeaderBytes = 24;

/// Chunk-open and chunk-decode Statuses carry chunk-relative offsets;
/// rebase them onto the file so diagnostics match the in-memory reader's.
Status RebaseOffset(Status s, uint64_t chunk_base) {
  if (s.ok() || s.offset() == Status::kNoOffset) return s;
  return Status(s.code(), s.message(), s.offset() + chunk_base);
}

#if ALP_OBS
obs::Counter& ChunkReadCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.chunk.reads");
  return c;
}
obs::Counter& ChunkBytesCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.chunk.bytes");
  return c;
}
obs::Counter& PrefetchIssuedCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.prefetch.issued");
  return c;
}
obs::Counter& PrefetchFallbackCounter() {
  static obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("io.prefetch.sync_fallback");
  return c;
}
obs::Gauge& PrefetchDepthGauge() {
  static obs::Gauge& g =
      obs::MetricRegistry::Global().GetGauge("io.prefetch.depth");
  return g;
}

/// The flight recorder of the request \p ctx belongs to, if any.
obs::FlightRecorder* RecorderOf(const OpContext* ctx) {
  return ctx != nullptr && ctx->request != nullptr ? ctx->request->recorder
                                                   : nullptr;
}
#endif

}  // namespace

/// One in-flight background chunk read. The task owns a shared_ptr, so a
/// slot abandoned by a cancelled scan stays valid until the task finishes;
/// the task captures only the source and this slot — never the reader —
/// so reader teardown cannot race it either.
template <typename T>
struct SeekableReader<T>::PrefetchSlot {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  std::vector<uint8_t> bytes;
};

/// A verified, opened rowgroup chunk: what the cache holds and what every
/// read decodes or packed-evaluates from. `reader` points into `owned` (a
/// copy) or into a View of `pinned`, which this entry keeps alive.
template <typename T>
struct SeekableReader<T>::Chunk final : DecodedVectorCache::Entry {
  Chunk(std::vector<uint8_t> copy, std::shared_ptr<const RandomAccessSource> pin,
        ColumnReader<T> chunk_reader, size_t charge)
      : Entry(charge),
        owned(std::move(copy)),
        pinned(std::move(pin)),
        reader(std::move(chunk_reader)) {}

  std::vector<uint8_t> owned;
  std::shared_ptr<const RandomAccessSource> pinned;
  ColumnReader<T> reader;
};

template <typename T>
StatusOr<std::shared_ptr<SeekableReader<T>>> SeekableReader<T>::Open(
    std::shared_ptr<RandomAccessSource> source, SeekableReaderOptions options) {
  if (source == nullptr) return Status::Io("null source");
  const uint64_t file_size = source->size();
  if (file_size < kColumnHeaderBytes) {
    return Status::Truncated("buffer smaller than the column header");
  }
  uint8_t header[kColumnHeaderBytes];
  Status s = source->ReadAt(0, sizeof(header), header);
  if (!s.ok()) return s;
  StatusOr<size_t> region_size =
      alp::internal::ColumnIndexRegionSize<T>(header, sizeof(header));
  if (!region_size.ok()) return region_size.status();
  if (*region_size > file_size) {
    return Status::Truncated("truncated index sections", kColumnHeaderBytes);
  }
  std::vector<uint8_t> region(*region_size);
  s = source->ReadAt(0, region.size(), region.data());
  if (!s.ok()) return s;
  StatusOr<alp::internal::ColumnIndex> index =
      alp::internal::ParseColumnIndex<T>(region.data(), region.size(),
                                         file_size);
  if (!index.ok()) return index.status();
  return std::shared_ptr<SeekableReader<T>>(new SeekableReader<T>(
      std::move(source), options, std::move(*index)));
}

template <typename T>
SeekableReader<T>::SeekableReader(std::shared_ptr<RandomAccessSource> source,
                                  SeekableReaderOptions options,
                                  alp::internal::ColumnIndex index)
    : source_(std::move(source)),
      options_(std::move(options)),
      index_(std::move(index)),
      column_id_(g_next_column_id.fetch_add(1, std::memory_order_relaxed)) {
#if ALP_OBS
  if (!options_.column_label.empty()) {
    auto& registry = obs::MetricRegistry::Global();
    labeled_cache_hits_ = &registry.GetCounter(obs::LabeledName(
        "io.cache.hit", {{"column", options_.column_label}}));
    labeled_cache_misses_ = &registry.GetCounter(obs::LabeledName(
        "io.cache.miss", {{"column", options_.column_label}}));
  }
#endif
}

template <typename T>
unsigned SeekableReader<T>::VectorLength(size_t v) const {
  const uint64_t begin = uint64_t{v} * kVectorSize;
  return static_cast<unsigned>(
      std::min<uint64_t>(kVectorSize, index_.value_count - begin));
}

template <typename T>
uint64_t SeekableReader<T>::RowgroupValueCount(size_t rg) const {
  const uint64_t first = uint64_t{rg} * kRowgroupSize;
  if (first >= index_.value_count) return 0;
  return std::min<uint64_t>(kRowgroupSize, index_.value_count - first);
}

template <typename T>
void SeekableReader<T>::ChunkExtent(size_t rg, uint64_t* begin,
                                    uint64_t* end) const {
  *begin = index_.rowgroup_offsets[rg];
  *end = rg + 1 < index_.rowgroup_offsets.size()
             ? index_.rowgroup_offsets[rg + 1]
             : source_->size();
}

template <typename T>
std::shared_ptr<typename SeekableReader<T>::PrefetchSlot>
SeekableReader<T>::SchedulePrefetch(size_t rg) const {
  if (options_.prefetch_pool == nullptr || options_.prefetch_rowgroups == 0) {
    return nullptr;
  }
  uint64_t begin, end;
  ChunkExtent(rg, &begin, &end);
  auto slot = std::make_shared<PrefetchSlot>();
  std::shared_ptr<RandomAccessSource> source = source_;
  std::function<void()> task = [source, slot, begin, end] {
    ALP_OBS_SPAN(fetch_span, "io.chunk_fetch", end - begin);
    std::vector<uint8_t> bytes(end - begin);
    Status s = source->ReadAt(begin, bytes.size(), bytes.data());
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->status = std::move(s);
    if (slot->status.ok()) slot->bytes = std::move(bytes);
    slot->done = true;
    slot->cv.notify_all();
  };
  if (!options_.prefetch_pool->TrySubmit(&task, options_.prefetch_queue_limit)) {
    // Saturated (or shutting down) pool: degrade to a synchronous read on
    // first touch instead of queueing unbounded.
    ALP_OBS_ONLY(PrefetchFallbackCounter().Increment());
    return nullptr;
  }
  const int64_t depth =
      prefetch_outstanding_.fetch_add(1, std::memory_order_relaxed) + 1;
  (void)depth;
  ALP_OBS_ONLY({
    PrefetchIssuedCounter().Increment();
    PrefetchDepthGauge().Set(depth);
  });
  return slot;
}

template <typename T>
bool SeekableReader<T>::RowgroupWanted(size_t rg,
                                       const VectorFilter* want) const {
  if (RowgroupValueCount(rg) == 0) return false;
  if (want == nullptr) return true;
  const size_t first_vector = rg * kRowgroupVectors;
  for (size_t lv = 0, vectors = RowgroupVectorCount(rg); lv < vectors; ++lv) {
    if ((*want)(first_vector + lv)) return true;
  }
  return false;
}

template <typename T>
size_t SeekableReader<T>::RowgroupVectorCount(size_t rg) const {
  return static_cast<size_t>((RowgroupValueCount(rg) + kVectorSize - 1) /
                             kVectorSize);
}

template <typename T>
Status SeekableReader<T>::AcquireChunk(
    size_t rg, const std::shared_ptr<PrefetchSlot>& prefetched,
    const OpContext* ctx, std::shared_ptr<const Chunk>* chunk) const {
  if (ctx != nullptr) {
    Status cs = ctx->Check();
    if (!cs.ok()) return cs;
  }
  // Per-request attribution: every cache decision and chunk load is
  // credited to the owning request's flight recorder.
  ALP_OBS_ONLY(obs::FlightRecorder* recorder = RecorderOf(ctx));
  DecodedVectorCache* cache = options_.cache;
  const bool caching = cache != nullptr && cache->capacity_bytes() > 0;
  if (caching) {
    DecodedVectorCache::Value hit;
    {
      ALP_OBS_SPAN(lookup_span, "io.cache_lookup", 1);
      hit = cache->Lookup(column_id_, rg);
    }
    if (hit != nullptr) {
      ALP_OBS_ONLY({
        if (labeled_cache_hits_ != nullptr) labeled_cache_hits_->Increment();
        if (recorder != nullptr) recorder->Count("io.cache.hit");
      });
      // Keys are namespaced by column_id_, so every entry under them was
      // inserted below as a Chunk.
      *chunk = std::static_pointer_cast<const Chunk>(std::move(hit));
      return Status::Ok();
    }
    ALP_OBS_ONLY({
      if (labeled_cache_misses_ != nullptr) labeled_cache_misses_->Increment();
      if (recorder != nullptr) recorder->Count("io.cache.miss");
    });
  }

  // The fault site fires on every miss, whether the prefetcher, a view or
  // a synchronous read supplies the bytes, so injected chunk-read failures
  // are deterministic per touched rowgroup regardless of prefetch timing.
  ALP_FAULT("io.chunk_read");
  uint64_t begin, end;
  ChunkExtent(rg, &begin, &end);
  const size_t len = static_cast<size_t>(end - begin);
  std::vector<uint8_t> owned;
  std::shared_ptr<const RandomAccessSource> pinned;
  const uint8_t* bytes = nullptr;
  if (prefetched != nullptr) {
    std::unique_lock<std::mutex> lock(prefetched->mu);
    prefetched->cv.wait(lock, [&] { return prefetched->done; });
    if (!prefetched->status.ok()) return prefetched->status;
    owned = std::move(prefetched->bytes);
    bytes = owned.data();
  } else if ((bytes = source_->View(begin, len)) != nullptr) {
    pinned = source_;
  } else {
    ALP_OBS_SPAN(fetch_span, "io.chunk_fetch", len);
    owned.resize(len);
    Status s = source_->ReadAt(begin, len, owned.data());
    if (!s.ok()) return s;
    bytes = owned.data();
  }
  ALP_OBS_ONLY({
    ChunkReadCounter().Increment();
    ChunkBytesCounter().Add(len);
    if (recorder != nullptr) {
      recorder->Count("io.chunk.reads");
      recorder->Count("io.chunk.bytes", len);
    }
  });
  // Verify before anything downstream touches the bytes (v3; a v2 file has
  // no per-rowgroup checksums and relies on the structural walk alone).
  if (!index_.rowgroup_checksums.empty() &&
      Checksum64(bytes, len) != index_.rowgroup_checksums[rg]) {
    return Status::ChecksumMismatch("rowgroup payload checksum mismatch", begin);
  }
  StatusOr<ColumnReader<T>> opened = [&] {
    ALP_OBS_SPAN(open_span, "io.chunk_open", len);
    return ColumnReader<T>::OpenRowgroupChunk(bytes, len, RowgroupValueCount(rg));
  }();
  if (!opened.ok()) return RebaseOffset(opened.status(), begin);
  // Moving `owned` into the entry keeps its heap buffer, which the opened
  // reader points into.
  auto entry = std::make_shared<const Chunk>(std::move(owned), std::move(pinned),
                                             std::move(*opened), len);
  if (caching) cache->Insert(column_id_, rg, entry);
  *chunk = std::move(entry);
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::DecodeChunkVectors(const Chunk& chunk, size_t rg,
                                             size_t lv_begin, size_t lv_end,
                                             T* out,
                                             const OpContext* ctx) const {
  ALP_OBS_ONLY(obs::FlightRecorder* recorder = RecorderOf(ctx));
  for (size_t lv = lv_begin; lv < lv_end; ++lv) {
    Status ds = chunk.reader.TryDecodeVector(
        lv, out + (lv - lv_begin) * kVectorSize, ctx);
    if (!ds.ok()) {
      return RebaseOffset(std::move(ds), index_.rowgroup_offsets[rg]);
    }
    ALP_OBS_ONLY({
      if (recorder != nullptr) {
        // ALP exceptions patched in this vector — the per-request cousin of
        // the aggregate exceptions-per-vector histogram. The header is
        // re-read only for recorded requests.
        recorder->Count("decode.exceptions", chunk.reader.VectorExceptionCount(lv));
      }
    });
  }
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::VisitRowgroupImpl(
    size_t rg, const std::shared_ptr<PrefetchSlot>& prefetched,
    const Visitor& visit, const OpContext* ctx,
    const VectorFilter* want) const {
  const size_t first_vector = rg * kRowgroupVectors;
  std::shared_ptr<const Chunk> chunk;
  alignas(64) T values[kVectorSize];
  for (size_t lv = 0, vectors = RowgroupVectorCount(rg); lv < vectors; ++lv) {
    const size_t v = first_vector + lv;
    if (want != nullptr && !(*want)(v)) continue;
    if (chunk == nullptr) {
      Status s = AcquireChunk(rg, prefetched, ctx, &chunk);
      if (!s.ok()) return s;
    }
    Status ds = DecodeChunkVectors(*chunk, rg, lv, lv + 1, values, ctx);
    if (!ds.ok()) return ds;
    Status vs = visit(v, values, VectorLength(v));
    if (!vs.ok()) return vs;
  }
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::VisitRowgroup(size_t rg, const Visitor& visit,
                                        const OpContext* ctx,
                                        const VectorFilter* want) const {
  if (rg >= rowgroup_count()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  return VisitRowgroupImpl(rg, nullptr, visit, ctx, want);
}

template <typename T>
Status SeekableReader<T>::FilterSumRowgroup(size_t rg,
                                            const TranslatedPredicate& pred,
                                            double* sum,
                                            pushdown::VectorCounters* counters,
                                            const OpContext* ctx) const {
  if (rg >= rowgroup_count()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  if constexpr (sizeof(T) != 8) {
    (void)pred;
    (void)sum;
    (void)counters;
    (void)ctx;
    return Status::InvalidArgument(
        "compressed-domain filter requires a double column");
  } else {
    const size_t first_vector = rg * kRowgroupVectors;
    std::shared_ptr<const Chunk> chunk;
    pushdown::EvalScratch scratch;
    for (size_t lv = 0, vectors = RowgroupVectorCount(rg); lv < vectors; ++lv) {
      const size_t v = first_vector + lv;
      if (ctx != nullptr) {
        Status cs = ctx->Check();
        if (!cs.ok()) return cs;
      }
      // Zone-map push-down from the resident index region: a vector (or a
      // whole rowgroup) whose [min, max] misses the closed envelope is
      // never fetched, let alone decoded.
      if (!index_.stats[v].MayContain(pred.pred().lo, pred.pred().hi)) {
        ++counters->skipped;
        pushdown::NoteSkippedVectors(1);
        continue;
      }
      if (chunk == nullptr) {
        Status s = AcquireChunk(rg, nullptr, ctx, &chunk);
        if (!s.ok()) return s;
      }
      const ColumnReader<T>& reader = chunk->reader;
      // Full-inside fast path: the resident zone map proves every value
      // qualifies (valid only for ALP vectors with zero exceptions — see
      // pushdown::ZoneFullInside); decode and sum without the predicate.
      if (reader.VectorScheme(lv) == Scheme::kAlp &&
          reader.VectorExceptionCount(lv) == 0 &&
          pushdown::ZoneFullInside(index_.stats[v], pred.pred())) {
        ++counters->full_inside;
        pushdown::NoteFullInsideVector();
        Status ds = DecodeChunkVectors(*chunk, rg, lv, lv + 1, scratch.values, ctx);
        if (!ds.ok()) return ds;
        *sum += pushdown::StripedSumAll(scratch.values, VectorLength(v));
        continue;
      }
      // Packed-lane evaluation (or per-vector decode-then-filter fallback)
      // inside the verified chunk. The chunk passed OpenRowgroupChunk's
      // structural walk, so the trusted per-vector paths are safe here.
      pushdown::FilterSumVector(reader, lv, pred, &scratch, sum, counters);
    }
    return Status::Ok();
  }
}

template <typename T>
Status SeekableReader<T>::TryDecodeVector(size_t v, T* out,
                                          const OpContext* ctx) const {
  if (ctx != nullptr) {
    Status cs = ctx->Check();
    if (!cs.ok()) return cs;
  }
  if (v >= vector_count()) {
    return Status::Corrupt("vector index out of range");
  }
  const size_t rg = v / kRowgroupVectors;
  const size_t lv = v % kRowgroupVectors;
  std::shared_ptr<const Chunk> chunk;
  Status s = AcquireChunk(rg, nullptr, ctx, &chunk);
  if (!s.ok()) return s;
  return DecodeChunkVectors(*chunk, rg, lv, lv + 1, out, ctx);
}

template <typename T>
Status SeekableReader<T>::TryDecodeRowgroup(size_t rg, T* out,
                                            const OpContext* ctx) const {
  if (rg >= rowgroup_count()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  if (RowgroupValueCount(rg) == 0) return Status::Ok();
  std::shared_ptr<const Chunk> chunk;
  Status s = AcquireChunk(rg, nullptr, ctx, &chunk);
  if (!s.ok()) return s;
  return DecodeChunkVectors(*chunk, rg, 0, RowgroupVectorCount(rg), out, ctx);
}

template <typename T>
Status SeekableReader<T>::TryDecodeAll(T* out, const OpContext* ctx) const {
  return ForEachRowgroup(
      nullptr, [&](size_t rg, const std::shared_ptr<PrefetchSlot>& slot) {
        std::shared_ptr<const Chunk> chunk;
        Status s = AcquireChunk(rg, slot, ctx, &chunk);
        if (!s.ok()) return s;
        return DecodeChunkVectors(*chunk, rg, 0, RowgroupVectorCount(rg),
                                  out + rg * kRowgroupSize, ctx);
      });
}

template <typename T>
Status SeekableReader<T>::Scan(const Visitor& visit, const OpContext* ctx,
                               const VectorFilter* want) const {
  return ForEachRowgroup(
      want, [&](size_t rg, const std::shared_ptr<PrefetchSlot>& slot) {
        return VisitRowgroupImpl(rg, slot, visit, ctx, want);
      });
}

template <typename T>
template <typename Fn>
Status SeekableReader<T>::ForEachRowgroup(const VectorFilter* want,
                                          Fn&& fn) const {
  ALP_OBS_SPAN(scan_span, "io.scan", index_.value_count);
  const size_t rowgroups = rowgroup_count();
  const size_t window =
      options_.prefetch_pool != nullptr ? options_.prefetch_rowgroups : 0;

  std::unordered_map<size_t, std::shared_ptr<PrefetchSlot>> inflight;
  const auto drop_outstanding = [this] {
    const int64_t depth =
        prefetch_outstanding_.fetch_sub(1, std::memory_order_relaxed) - 1;
    ALP_OBS_ONLY(PrefetchDepthGauge().Set(depth));
    (void)depth;
  };

  Status result;
  size_t horizon = 0;  ///< Rowgroups [0, horizon) already considered.
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    if (!RowgroupWanted(rg, want)) continue;
    if (window > 0) {
      // Keep the next `window` wanted rowgroups beyond rg in flight.
      if (horizon < rg + 1) horizon = rg + 1;
      const size_t limit = std::min(rowgroups, rg + window + 1);
      for (; horizon < limit; ++horizon) {
        if (!RowgroupWanted(horizon, want)) continue;
        std::shared_ptr<PrefetchSlot> slot = SchedulePrefetch(horizon);
        if (slot != nullptr) inflight.emplace(horizon, std::move(slot));
      }
    }
    std::shared_ptr<PrefetchSlot> slot;
    auto it = inflight.find(rg);
    if (it != inflight.end()) {
      slot = std::move(it->second);
      inflight.erase(it);
      drop_outstanding();
    }
    Status s = fn(rg, slot);
    if (!s.ok()) {
      result = std::move(s);
      break;
    }
  }
  // Abandoned slots (early exit): their tasks own everything they touch,
  // so dropping our references here is safe even while they still run.
  for (size_t i = 0; i < inflight.size(); ++i) drop_outstanding();
  inflight.clear();
  return result;
}

template class SeekableReader<double>;
template class SeekableReader<float>;

}  // namespace alp::io
