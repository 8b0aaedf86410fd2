#include "io/seekable_reader.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
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
Status SeekableReader<T>::AcquireChunk(
    size_t rg, const std::shared_ptr<PrefetchSlot>& prefetched,
    const OpContext* ctx, std::shared_ptr<const Chunk>* chunk) const {
  if (ctx != nullptr) {
    Status cs = ctx->Check();
    if (!cs.ok()) return cs;
  }
  // Per-request attribution: every cache decision and chunk load is
  // credited to the owning request's flight recorder.
  ALP_OBS_ONLY(obs::FlightRecorder* recorder =
                   ctx != nullptr && ctx->request != nullptr ? ctx->request->recorder
                                                             : nullptr);
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
  if (!opened.ok()) {
    // Its offsets are chunk-relative: rebase them onto the file, so
    // diagnostics match the in-memory reader's.
    const Status& o = opened.status();
    if (o.offset() == Status::kNoOffset) return o;
    return Status(o.code(), o.message(), o.offset() + begin);
  }
  // Moving `owned` into the entry keeps its heap buffer, which the opened
  // reader points into.
  auto entry = std::make_shared<const Chunk>(std::move(owned), std::move(pinned),
                                             std::move(*opened), len);
  if (caching) cache->Insert(column_id_, rg, entry);
  *chunk = std::move(entry);
  return Status::Ok();
}

template <typename T>
Status SeekableReader<T>::FilterSumRowgroup(
    size_t rg, [[maybe_unused]] const TranslatedPredicate& pred,
    [[maybe_unused]] double* sum,
    [[maybe_unused]] pushdown::VectorCounters* counters,
    [[maybe_unused]] const OpContext* ctx) const {
  if (rg >= rowgroup_count()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  if constexpr (sizeof(T) != 8) {
    return Status::InvalidArgument(
        "compressed-domain filter requires a double column");
  } else {
    // The source borrows this reader through an aliasing pointer that owns
    // nothing.
    const SeekableSource source({std::shared_ptr<const void>(), this});
    exec::Scratch scratch;
    Status s = exec::FilterSumRowgroup(source, rg, pred, exec::FilterMode::kAuto, ctx,
                                       &scratch, sum);
    *counters += scratch.counters;
    return s;
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
  if constexpr (sizeof(T) == 8) {
    // The executor's point lookup, the one the server runs.
    const SeekableSource source({std::shared_ptr<const void>(), this});
    exec::Scratch scratch;
    return exec::ReadVector(source, v, ctx, &scratch, out);
  } else {
    const size_t rg = v / kRowgroupVectors;
    std::shared_ptr<const Chunk> chunk;
    Status s = AcquireChunk(rg, nullptr, ctx, &chunk);
    if (!s.ok()) return s;
    return exec::DecodeChunkVector(chunk->reader, v % kRowgroupVectors,
                                   index_.rowgroup_offsets[rg], ctx, out);
  }
}

template <typename T>
Status SeekableReader<T>::TryDecodeAll(T* out, const OpContext* ctx) const {
  return Scan(
      [out](size_t v, const T* values, unsigned len) {
        std::memcpy(out + v * kVectorSize, values, len * sizeof(T));
        return Status::Ok();
      },
      ctx);
}

template <typename T>
Status SeekableReader<T>::Scan(const Visitor& visit, const OpContext* ctx) const {
  return ForEachRowgroup(
      [&](size_t rg, const std::shared_ptr<PrefetchSlot>& slot) {
        std::shared_ptr<const Chunk> chunk;
        Status s = AcquireChunk(rg, slot, ctx, &chunk);
        alignas(64) T values[kVectorSize];
        const size_t first = rg * kRowgroupVectors;
        const size_t end = std::min(vector_count(), first + kRowgroupVectors);
        for (size_t v = first; s.ok() && v < end; ++v) {
          if (ctx != nullptr) s = ctx->Check();
          if (s.ok()) {
            s = exec::DecodeChunkVector(chunk->reader, v - first,
                                        index_.rowgroup_offsets[rg], ctx, values);
          }
          if (s.ok()) s = visit(v, values, VectorLength(v));
        }
        return s;
      });
}

template <typename T>
template <typename Fn>
Status SeekableReader<T>::ForEachRowgroup(Fn&& fn) const {
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
    if (RowgroupValueCount(rg) == 0) continue;
    if (window > 0) {
      // Keep the next `window` non-empty rowgroups beyond rg in flight.
      if (horizon < rg + 1) horizon = rg + 1;
      const size_t limit = std::min(rowgroups, rg + window + 1);
      for (; horizon < limit; ++horizon) {
        if (RowgroupValueCount(horizon) == 0) continue;
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

SeekableSource::SeekableSource(std::shared_ptr<const SeekableReader<double>> reader)
    : exec::VectorSource(reader->value_count(), reader->index().stats.data()),
      reader_(std::move(reader)) {}

Status SeekableSource::Lend(size_t rg, const OpContext* ctx, AlignedBuffer<double>*,
                            exec::RowgroupLease* lease) const {
  std::shared_ptr<const SeekableReader<double>::Chunk> chunk;
  Status s = reader_->AcquireChunk(rg, nullptr, ctx, &chunk);
  if (!s.ok()) return s;
  lease->reader = &chunk->reader;
  lease->first_vector = 0;
  lease->chunk = true;
  lease->chunk_offset = reader_->index().rowgroup_offsets[rg];
  lease->pin = std::move(chunk);
  return Status::Ok();
}

}  // namespace alp::io
