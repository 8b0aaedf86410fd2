#include "alp/column.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "alp/encoder.h"
#include "alp/kernel_dispatch.h"
#include "fastlanes/bitpack.h"
#include "fastlanes/delta.h"
#include "fastlanes/ffor.h"
#include "obs/trace.h"
#include "util/checksum.h"
#include "util/fault_injection.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace alp {
namespace {

constexpr uint32_t kMagic = 0x43504C41;  // "ALPC"
// v2 added the per-vector zone map section; v3 added XXH64 checksums over
// the header/index region and each rowgroup payload.
constexpr uint8_t kVersion = kColumnFormatVersion;
constexpr uint8_t kMinVersion = kColumnFormatMinVersion;

template <typename T>
constexpr uint8_t TypeTag() {
  return sizeof(T) == 8 ? 0 : 1;
}

struct ColumnHeader {
  uint32_t magic;
  uint8_t version;
  uint8_t type;
  uint16_t pad0;
  uint64_t value_count;
  uint32_t rowgroup_count;
  uint32_t pad1;
};
static_assert(sizeof(ColumnHeader) == 24);

struct RowgroupHeader {
  uint8_t scheme;
  uint8_t pad[3];
  uint32_t vector_count;
};
static_assert(sizeof(RowgroupHeader) == 8);

struct RdHeader {
  uint8_t right_bits;
  uint8_t dict_width;
  uint8_t dict_size;
  uint8_t pad0;
  uint16_t dict[8];
  uint32_t pad1;
};
static_assert(sizeof(RdHeader) == 24);

struct AlpVectorHeader {
  uint8_t e;
  uint8_t f;
  uint8_t width;
  uint8_t int_encoding;  ///< 0 = FFOR, 1 = Delta (+ zig-zag); base = first.
  uint16_t exc_count;
  uint16_t n;
  uint64_t base;
};

constexpr uint8_t kIntFfor = 0;
constexpr uint8_t kIntDelta = 1;
static_assert(sizeof(AlpVectorHeader) == 16);

/// Byte offsets of the index sections that sit between the column header
/// and the first rowgroup. Every section is a multiple of 8 bytes, so the
/// payload start needs no extra alignment. v2 buffers have no checksum
/// sections (checksums_at == stats_at, header_checksum_at == payload_begin).
struct IndexLayout {
  size_t offsets_at = 0;          ///< Rowgroup offset index (u64 each).
  size_t checksums_at = 0;        ///< v3: rowgroup payload checksums.
  size_t stats_at = 0;            ///< Zone map entries.
  size_t header_checksum_at = 0;  ///< v3: XXH64 of bytes [0, here).
  size_t payload_begin = 0;       ///< First rowgroup byte.
};

IndexLayout ComputeIndexLayout(uint8_t version, uint32_t rowgroup_count,
                               size_t total_vectors) {
  const bool v3 = version >= 3;
  const size_t offsets_bytes = size_t{rowgroup_count} * sizeof(uint64_t);
  IndexLayout layout;
  layout.offsets_at = sizeof(ColumnHeader);
  layout.checksums_at = layout.offsets_at + offsets_bytes;
  layout.stats_at = layout.checksums_at + (v3 ? offsets_bytes : 0);
  layout.header_checksum_at = layout.stats_at + total_vectors * sizeof(VectorStats);
  layout.payload_begin = layout.header_checksum_at + (v3 ? sizeof(uint64_t) : 0);
  return layout;
}

struct RdVectorHeader {
  uint16_t exc_count;
  uint16_t n;
  uint32_t pad;
};
static_assert(sizeof(RdVectorHeader) == 8);

/// Rounds \p bytes up to the format's 8-byte section alignment.
constexpr size_t AlignUp8(size_t bytes) { return (bytes + 7) & ~size_t{7}; }

/// Appends one ALP-encoded vector of \p n values to \p out at its exact
/// size, bit-packing straight into the buffer. With \p try_delta, Delta
/// (+ zig-zag) competes against FOR for the integer encoding and the
/// narrower of the two wins (the paper's "somewhat ordered" extension).
template <typename T>
void WriteAlpVector(const EncodedVector<T>& enc, unsigned n, bool try_delta,
                    ByteBuffer* out) {
  using Uint = typename AlpTraits<T>::Uint;
  const fastlanes::FforParams& ffor = enc.ffor;  // Computed during encoding.

  AlpVectorHeader header{};
  header.e = enc.combination.e;
  header.f = enc.combination.f;
  header.exc_count = enc.exc_count;
  header.n = static_cast<uint16_t>(n);
  header.int_encoding = kIntFfor;
  header.width = static_cast<uint8_t>(ffor.width);
  header.base = ffor.base;

  ALP_OBS_SPAN(pack_span, "compress.pack", kVectorSize);
  fastlanes::DeltaParams delta;
  if constexpr (sizeof(T) == 8) {
    if (try_delta) {
      delta = fastlanes::DeltaAnalyze(enc.encoded, kVectorSize);
      if (delta.width < ffor.width) {
        header.int_encoding = kIntDelta;
        header.width = static_cast<uint8_t>(delta.width);
        header.base = static_cast<uint64_t>(delta.first);
      }
    }
  }
  const size_t packed_bytes = fastlanes::PackedBytes<Uint>(header.width);
  const size_t exc_value_bytes = size_t{enc.exc_count} * sizeof(Uint);
  uint8_t* at = out->Extend(AlignUp8(sizeof(header) + packed_bytes + exc_value_bytes +
                                     size_t{enc.exc_count} * sizeof(uint16_t)));
  std::memcpy(at, &header, sizeof(header));
  Uint* packed = reinterpret_cast<Uint*>(at + sizeof(header));
  if (header.int_encoding == kIntDelta) {
    if constexpr (sizeof(T) == 8) fastlanes::DeltaEncode(enc.encoded, packed, delta);
  } else {
    fastlanes::FforEncode(enc.encoded, packed, ffor);
  }
  // Exceptions: raw value bits, then positions.
  uint8_t* exc_at = at + sizeof(header) + packed_bytes;
  if (enc.exc_count > 0) {
    std::memcpy(exc_at, enc.exceptions, exc_value_bytes);
    std::memcpy(exc_at + exc_value_bytes, enc.exc_positions,
                size_t{enc.exc_count} * sizeof(uint16_t));
  }
  ALP_OBS_ONLY({
    static obs::Histogram& widths = obs::MetricRegistry::Global().GetHistogram(
        "encode.bit_width", {0, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64},
        "bits");
    widths.Record(header.width);
  });
}

/// Appends one ALP_rd-encoded vector of \p n values to \p out at its exact
/// size, bit-packing straight into the buffer.
template <typename T>
void WriteRdVector(const RdEncodedVector<T>& enc, unsigned n, const RdParams<T>& params,
                   ByteBuffer* out) {
  using Uint = typename AlpTraits<T>::Uint;

  RdVectorHeader header{};
  header.exc_count = enc.exc_count;
  header.n = static_cast<uint16_t>(n);
  const size_t right_bytes = fastlanes::PackedBytes<Uint>(params.right_bits);
  const size_t code_bytes = fastlanes::PackedBytes<Uint>(params.dict_width);
  const size_t exc_bytes = size_t{enc.exc_count} * sizeof(uint16_t);
  uint8_t* at = out->Extend(
      AlignUp8(sizeof(header) + right_bytes + code_bytes + 2 * exc_bytes));
  std::memcpy(at, &header, sizeof(header));
  at += sizeof(header);
  fastlanes::Pack(enc.right_parts, reinterpret_cast<Uint*>(at), params.right_bits);
  at += right_bytes;

  Uint codes[kVectorSize];
  for (unsigned i = 0; i < kVectorSize; ++i) codes[i] = enc.left_codes[i];
  fastlanes::Pack(codes, reinterpret_cast<Uint*>(at), params.dict_width);
  at += code_bytes;

  if (enc.exc_count > 0) {
    std::memcpy(at, enc.exceptions, exc_bytes);
    std::memcpy(at + exc_bytes, enc.exc_positions, exc_bytes);
  }
}

/// Upper bound of a rowgroup segment's size for data that compresses to
/// at most its raw size: the rowgroup and ALP_rd headers, the vector
/// offsets and, per vector, a header plus alignment padding.
template <typename T>
size_t SegmentSizeHint(size_t n) {
  const size_t vectors = (n + kVectorSize - 1) / kVectorSize;
  return sizeof(RowgroupHeader) + sizeof(RdHeader) + AlignUp8(vectors * sizeof(uint32_t)) +
         vectors * (sizeof(AlpVectorHeader) + 8) + n * sizeof(T);
}

/// Compresses one rowgroup (scheme analysis + per-vector encode) starting
/// at the current, 8-aligned position of \p out, which it leaves 8-aligned.
/// Rowgroup payloads are position-independent (vector offsets are relative
/// to the rowgroup start), which is what lets ColumnAppender build them
/// incrementally.
template <typename T>
void CompressRowgroupTo(const T* rg_data, size_t rg_len, const SamplerConfig& config,
                        ByteBuffer* out, VectorStats* stats, CompressionInfo* info) {
  const size_t rg_begin = out->size();
  const uint32_t vectors_here =
      static_cast<uint32_t>((rg_len + kVectorSize - 1) / kVectorSize);
  ALP_OBS_SPAN(rowgroup_span, "compress.rowgroup", rg_len);
  ALP_OBS_ONLY({
    // Worker attribution: which pool worker compressed this rowgroup (the
    // serial path runs off-pool and is counted separately).
    const int worker = ThreadPool::CurrentWorkerIndex();
    if (worker >= 0) {
      static obs::Histogram& by_worker =
          obs::MetricRegistry::Global().GetHistogram(
              "compress.rowgroups_by_worker",
              {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
              "worker");
      by_worker.Record(static_cast<uint64_t>(worker));
    } else {
      static obs::Counter& serial =
          obs::MetricRegistry::Global().GetCounter("compress.rowgroups_serial");
      serial.Increment();
    }
  });

  RowgroupAnalysis analysis;
  {
    ALP_OBS_SPAN(sample_span, "compress.sample", rg_len);
    analysis = AnalyzeRowgroup(rg_data, rg_len, config);
  }

  RowgroupHeader rg_header{};
  rg_header.scheme = static_cast<uint8_t>(analysis.scheme);
  rg_header.vector_count = vectors_here;
  out->Append(rg_header);

  RdParams<T> rd_params;
  if (analysis.scheme == Scheme::kAlpRd) {
    ALP_OBS_SPAN(rd_sample_span, "compress.sample_rd", rg_len);
    rd_params = RdAnalyzeRowgroup(rg_data, rg_len, config);
    RdHeader rd_header{};
    rd_header.right_bits = rd_params.right_bits;
    rd_header.dict_width = rd_params.dict_width;
    rd_header.dict_size = rd_params.dict_size;
    std::memcpy(rd_header.dict, rd_params.dict, sizeof(rd_header.dict));
    out->Append(rd_header);
    if (info != nullptr) ++info->rowgroups_rd;
  }

  const size_t vec_offsets_slot = out->ReserveSlot<uint32_t>(vectors_here);
  out->AlignTo(8);
  std::vector<uint32_t> vec_offsets(vectors_here, 0);

  for (uint32_t v = 0; v < vectors_here; ++v) {
    const size_t off = static_cast<size_t>(v) * kVectorSize;
    const unsigned len = static_cast<unsigned>(std::min<size_t>(kVectorSize, rg_len - off));
    vec_offsets[v] = static_cast<uint32_t>(out->size() - rg_begin);

    {
      // Zone map entry (NaNs are excluded; see kernels::MinMax).
      ALP_OBS_SPAN(zonemap_span, "compress.zonemap", len);
      double min_max[2];
      kernels::MinMax(rg_data + off, len, min_max);
      stats[v].min = min_max[0];
      stats[v].max = min_max[1];
    }

    if (analysis.scheme == Scheme::kAlp) {
      Combination c;
      {
        ALP_OBS_SPAN(choose_span, "compress.choose", len);
        c = ChooseForVector(rg_data + off, len, analysis.combinations, config,
                            info != nullptr ? &info->sampler : nullptr);
      }
      EncodedVector<T> enc;
      {
        ALP_OBS_SPAN(encode_span, "compress.encode", len);
        EncodeVector(rg_data + off, len, c, &enc);
      }
      {
        ALP_OBS_SPAN(write_span, "compress.write", len);
        WriteAlpVector(enc, len, config.try_delta_encoding, out);
      }
      if (info != nullptr) info->exceptions += enc.exc_count;
    } else {
      RdEncodedVector<T> enc;
      {
        ALP_OBS_SPAN(encode_rd_span, "compress.encode_rd", len);
        RdEncodeVector(rg_data + off, len, rd_params, &enc);
      }
      ALP_OBS_SPAN(write_span, "compress.write", len);
      WriteRdVector(enc, len, rd_params, out);
    }
    if (info != nullptr) ++info->vectors;
  }

  out->PatchArrayAt(vec_offsets_slot, vec_offsets.data(), vec_offsets.size());
  if (info != nullptr) ++info->rowgroups;
}

/// Assembles a full column buffer from per-rowgroup payload segments
/// produced by CompressRowgroupTo, each already checksummed by the thread
/// that built it. Shared by CompressColumn (one pass) and
/// ColumnAppender::Finish (incremental). The index region (header, offsets,
/// checksums, zone map, header checksum) is built first; the output is then
/// one exact-size allocation filled by one copy per piece.
template <typename T>
std::vector<uint8_t> AssembleColumn(uint64_t value_count,
                                    const std::vector<internal::RowgroupSegment>& segments,
                                    const std::vector<VectorStats>& stats) {
  ALP_OBS_SPAN(assemble_span, "compress.assemble", value_count);
  ByteBuffer index;
  ColumnHeader header{};
  header.magic = kMagic;
  header.version = kVersion;
  header.type = TypeTag<T>();
  header.value_count = value_count;
  header.rowgroup_count = static_cast<uint32_t>(std::max<size_t>(segments.size(), 1));
  const IndexLayout layout = ComputeIndexLayout(kVersion, header.rowgroup_count, stats.size());
  index.Reserve(layout.payload_begin);
  index.Append(header);

  // Rowgroup checksum i covers [offset_i, offset_{i+1}) — or to the end of
  // the buffer for the last rowgroup — i.e. the whole segment, whose size
  // is a multiple of 8, so the whole file is covered by header+rowgroup
  // checksums.
  std::vector<uint64_t> rg_offsets(header.rowgroup_count, layout.payload_begin);
  std::vector<uint64_t> rg_checksums(header.rowgroup_count, Checksum64(nullptr, 0));
  uint64_t offset = layout.payload_begin;
  for (size_t rg = 0; rg < segments.size(); ++rg) {
    rg_offsets[rg] = offset;
    rg_checksums[rg] = segments[rg].checksum;
    offset += segments[rg].bytes.size();
  }
  index.AppendArray(rg_offsets.data(), rg_offsets.size());
  index.AppendArray(rg_checksums.data(), rg_checksums.size());
  index.AppendArray(stats.data(), stats.size());
  {
    // The header checksum covers every byte before its own slot: column
    // header, rowgroup offsets, rowgroup checksums and the zone map.
    ALP_OBS_SPAN(checksum_span, "compress.checksum", index.size());
    index.Append(Checksum64(index.data(), index.size()));
  }
  assert(index.size() == layout.payload_begin);

  std::vector<uint8_t> out;
  out.reserve(offset);
  out.insert(out.end(), index.data(), index.data() + index.size());
  for (const internal::RowgroupSegment& segment : segments) {
    out.insert(out.end(), segment.bytes.begin(), segment.bytes.end());
  }
  return out;
}

}  // namespace

namespace internal {

/// Compresses one rowgroup into a standalone payload segment; exposed for
/// ColumnAppender.
template <typename T>
RowgroupSegment CompressRowgroupSegment(const T* data, size_t n,
                                        const SamplerConfig& config,
                                        std::vector<VectorStats>* stats,
                                        CompressionInfo* info) {
  ByteBuffer segment;
  segment.Reserve(SegmentSizeHint<T>(n));
  const size_t vectors = (n + kVectorSize - 1) / kVectorSize;
  std::vector<VectorStats> local(vectors);
  CompressRowgroupTo(data, n, config, &segment, local.data(), info);
  stats->insert(stats->end(), local.begin(), local.end());
  assert(segment.size() % 8 == 0);
  RowgroupSegment out;
  {
    ALP_OBS_SPAN(checksum_span, "compress.checksum", segment.size());
    out.checksum = Checksum64(segment.data(), segment.size());
  }
  out.bytes = segment.Take();
  return out;
}

template RowgroupSegment CompressRowgroupSegment<double>(const double*, size_t,
                                                         const SamplerConfig&,
                                                         std::vector<VectorStats>*,
                                                         CompressionInfo*);
template RowgroupSegment CompressRowgroupSegment<float>(const float*, size_t,
                                                        const SamplerConfig&,
                                                        std::vector<VectorStats>*,
                                                        CompressionInfo*);

template <typename T>
std::vector<uint8_t> AssembleColumnFromSegments(uint64_t value_count,
                                                const std::vector<RowgroupSegment>& segments,
                                                const std::vector<VectorStats>& stats) {
  return AssembleColumn<T>(value_count, segments, stats);
}

template std::vector<uint8_t> AssembleColumnFromSegments<double>(
    uint64_t, const std::vector<RowgroupSegment>&, const std::vector<VectorStats>&);
template std::vector<uint8_t> AssembleColumnFromSegments<float>(
    uint64_t, const std::vector<RowgroupSegment>&, const std::vector<VectorStats>&);

}  // namespace internal

namespace {

/// Shared compression driver: rowgroup rg is compressed into segments[rg]
/// (concurrently when \p pool is non-null), then everything is stitched in
/// rowgroup order. Because each rowgroup is compressed into a standalone,
/// position-independent segment and the stitch order is fixed, the output
/// bytes — and the merged counters — cannot depend on the worker count.
template <typename T>
std::vector<uint8_t> CompressColumnImpl(const T* data, size_t n,
                                        const SamplerConfig& config,
                                        CompressionInfo* info, ThreadPool* pool) {
  const size_t total_vectors = (n + kVectorSize - 1) / kVectorSize;
  const size_t rowgroup_count =
      std::max<size_t>((total_vectors + kRowgroupVectors - 1) / kRowgroupVectors, 1);

  std::vector<internal::RowgroupSegment> segments(rowgroup_count);
  std::vector<std::vector<VectorStats>> rg_stats(rowgroup_count);
  std::vector<CompressionInfo> rg_infos(info != nullptr ? rowgroup_count : 0);
  ParallelFor(pool, rowgroup_count, [&](size_t rg) {
    const size_t begin = rg * kRowgroupSize;
    const size_t len = n == 0 ? 0 : std::min<size_t>(kRowgroupSize, n - begin);
    segments[rg] = internal::CompressRowgroupSegment(
        data + begin, len, config, &rg_stats[rg],
        info != nullptr ? &rg_infos[rg] : nullptr);
  });

  std::vector<VectorStats> stats;
  stats.reserve(total_vectors);
  for (const auto& s : rg_stats) stats.insert(stats.end(), s.begin(), s.end());
  if (info != nullptr) {
    CompressionInfo merged;
    for (const auto& i : rg_infos) merged.MergeFrom(i);
    *info = merged;
  }
  return internal::AssembleColumnFromSegments<T>(n, segments, stats);
}

}  // namespace

template <typename T>
std::vector<uint8_t> CompressColumn(const T* data, size_t n, const SamplerConfig& config,
                                    CompressionInfo* info) {
  return CompressColumnImpl(data, n, config, info, nullptr);
}

template <typename T>
std::vector<uint8_t> CompressColumnParallel(const T* data, size_t n,
                                            const SamplerConfig& config,
                                            CompressionInfo* info, ThreadPool* pool) {
  return CompressColumnImpl(data, n, config, info, pool);
}

namespace {

/// Everything the per-rowgroup validation phases need, parsed and verified
/// once by ValidateHeaderAndIndex.
struct ValidationContext {
  ColumnHeader header;
  IndexLayout layout;
  std::vector<uint64_t> rg_offsets;
  size_t total_vectors = 0;
};

/// Phase 1 (serial): column header sanity, index-section fit, the v3 header
/// checksum, and the rowgroup offset index. After this returns OK, every
/// rg_offsets entry is 8-aligned, strictly increasing, and has room for at
/// least a RowgroupHeader — the guarantees the per-rowgroup phases build on.
template <typename T>
Status ValidateHeaderAndIndex(const uint8_t* data, size_t size,
                              ValidationContext* ctx) {
  if (data == nullptr || size < sizeof(ColumnHeader)) {
    return Status::Truncated("buffer smaller than the column header");
  }
  ColumnHeader& header = ctx->header;
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != kMagic) return Status::Corrupt("bad magic", 0);
  if (header.version < kMinVersion || header.version > kVersion) {
    return Status::UnsupportedVersion("unsupported format version",
                                      offsetof(ColumnHeader, version));
  }
  if (header.type != TypeTag<T>()) {
    return Status::Corrupt("value type tag mismatch", offsetof(ColumnHeader, type));
  }
  if (header.value_count > (uint64_t{1} << 62)) {
    return Status::Corrupt("value count implausibly large",
                           offsetof(ColumnHeader, value_count));
  }
  const bool v3 = header.version >= 3;

  ctx->total_vectors = (header.value_count + kVectorSize - 1) / kVectorSize;
  const size_t expected_rowgroups = std::max<size_t>(
      (ctx->total_vectors + kRowgroupVectors - 1) / kRowgroupVectors, 1);
  if (header.rowgroup_count != expected_rowgroups) {
    return Status::Corrupt("rowgroup count inconsistent with value count",
                           offsetof(ColumnHeader, rowgroup_count));
  }

  ctx->layout =
      ComputeIndexLayout(header.version, header.rowgroup_count, ctx->total_vectors);
  const IndexLayout& layout = ctx->layout;
  if (layout.payload_begin > size) {
    return Status::Truncated("truncated index sections", sizeof(ColumnHeader));
  }

  // v3: the header checksum covers everything before its own slot, so any
  // flipped bit in the column header, the offset index, the rowgroup
  // checksums or the zone map is caught here before those bytes are used.
  if (v3) {
    uint64_t stored;
    std::memcpy(&stored, data + layout.header_checksum_at, sizeof(stored));
    if (Checksum64(data, layout.header_checksum_at) != stored) {
      return Status::ChecksumMismatch("column header checksum mismatch",
                                      layout.header_checksum_at);
    }
  }

  ctx->rg_offsets.resize(header.rowgroup_count);
  std::memcpy(ctx->rg_offsets.data(), data + layout.offsets_at,
              ctx->rg_offsets.size() * sizeof(uint64_t));

  // Rowgroup offsets: in the payload area, 8-aligned, strictly increasing.
  for (size_t rg = 0; rg < ctx->rg_offsets.size(); ++rg) {
    const uint64_t off = ctx->rg_offsets[rg];
    if (off % 8 != 0) {
      return Status::Corrupt("misaligned rowgroup offset",
                             layout.offsets_at + rg * sizeof(uint64_t));
    }
    if (off < layout.payload_begin || off >= size ||
        size - off < sizeof(RowgroupHeader)) {
      return Status::Corrupt("rowgroup offset out of bounds",
                             layout.offsets_at + rg * sizeof(uint64_t));
    }
    if (rg > 0 && off <= ctx->rg_offsets[rg - 1]) {
      return Status::Corrupt("rowgroup offsets not increasing",
                             layout.offsets_at + rg * sizeof(uint64_t));
    }
  }
  return Status::Ok();
}

/// Phase 2 (per rowgroup, v3 only): payload checksum over [offset, next
/// offset or end of buffer) — the payload plus its alignment padding.
Status ValidateRowgroupChecksum(const uint8_t* data, size_t size,
                                const ValidationContext& ctx, size_t rg) {
  const size_t begin = static_cast<size_t>(ctx.rg_offsets[rg]);
  const size_t end = rg + 1 < ctx.rg_offsets.size()
                         ? static_cast<size_t>(ctx.rg_offsets[rg + 1])
                         : size;
  uint64_t stored;
  std::memcpy(&stored, data + ctx.layout.checksums_at + rg * sizeof(uint64_t),
              sizeof(stored));
  if (Checksum64(data + begin, end - begin) != stored) {
    return Status::ChecksumMismatch("rowgroup payload checksum mismatch", begin);
  }
  return Status::Ok();
}

/// Phase 3 (serial; cheap): zone-map sanity. NaN bounds can never satisfy
/// MayContain correctly, and min > max is only legal in the empty-vector
/// sentinel form.
Status ValidateZoneMap(const uint8_t* data, const ValidationContext& ctx) {
  for (size_t v = 0; v < ctx.total_vectors; ++v) {
    const size_t at = ctx.layout.stats_at + v * sizeof(VectorStats);
    VectorStats vs;
    std::memcpy(&vs, data + at, sizeof(vs));
    if (std::isnan(vs.min) || std::isnan(vs.max)) {
      return Status::Corrupt("zone map entry contains NaN", at);
    }
    const bool empty_sentinel =
        vs.min == std::numeric_limits<double>::infinity() &&
        vs.max == -std::numeric_limits<double>::infinity();
    if (vs.min > vs.max && !empty_sentinel) {
      return Status::Corrupt("zone map entry has min > max", at);
    }
  }
  return Status::Ok();
}

}  // namespace

namespace internal {

/// The one validating parse. Every ColumnReader is built here, and the
/// structural walk below is the only code that reads rowgroup, ALP_rd and
/// vector headers from the bytes; what it checks it records.
template <typename T>
struct ColumnParser {
  using Reader = ColumnReader<T>;
  using RowgroupInfo = typename Reader::RowgroupInfo;

  /// Structural walk of one rowgroup — scheme, vector count, ALP_rd
  /// parameters, vector offset index, per-vector header invariants,
  /// payload extents and exception positions — filling \p info and the
  /// rowgroup's vector records (\p records[0, vector_count)). Independent
  /// of every other rowgroup: the vectors a rowgroup must hold follow from
  /// its index alone (rowgroup rg owns global vectors [rg*kRowgroupVectors,
  /// ...)), which is what makes the walk safe to fan out.
  static Status WalkRowgroup(const uint8_t* data, size_t size,
                             const ValidationContext& ctx, size_t rg,
                             RowgroupInfo* info, VectorRecord* records) {
    const size_t off = static_cast<size_t>(ctx.rg_offsets[rg]);
    RowgroupHeader rg_header;
    std::memcpy(&rg_header, data + off, sizeof(rg_header));
    if (rg_header.scheme > 1) return Status::Corrupt("unknown rowgroup scheme", off);

    // Each rowgroup must hold exactly its share of the column's vectors.
    const size_t first_vector = rg * kRowgroupVectors;
    const size_t expected_vectors =
        std::min<size_t>(kRowgroupVectors, ctx.total_vectors - first_vector);
    if (rg_header.vector_count != expected_vectors) {
      return Status::Corrupt("rowgroup vector count inconsistent with value count",
                             off);
    }
    info->byte_offset = off;
    info->scheme = static_cast<Scheme>(rg_header.scheme);
    info->first_vector = first_vector;
    info->vector_count = rg_header.vector_count;

    size_t index_at = off + sizeof(RowgroupHeader);
    RdHeader rd{};
    if (info->scheme == Scheme::kAlpRd) {
      if (size - index_at < sizeof(RdHeader)) {
        return Status::Truncated("truncated ALP_rd header", index_at);
      }
      std::memcpy(&rd, data + index_at, sizeof(rd));
      // The encoder cuts at most kRdMaxLeftBits from the top, so
      // right_bits lies in [48, 64) for doubles and [16, 32) for floats;
      // anything else makes the glue shift in the decode undefined.
      if (rd.right_bits < AlpTraits<T>::kValueBits - kRdMaxLeftBits ||
          rd.right_bits >= AlpTraits<T>::kValueBits) {
        return Status::Corrupt("ALP_rd cut position out of range", index_at);
      }
      if (rd.dict_size > kRdMaxDictSize || rd.dict_width > kRdMaxDictWidth) {
        return Status::Corrupt("ALP_rd dictionary too big", index_at);
      }
      info->rd.right_bits = rd.right_bits;
      info->rd.dict_width = rd.dict_width;
      info->rd.dict_size = rd.dict_size;
      std::memcpy(info->rd.dict, rd.dict, sizeof(info->rd.dict));
      RdDictShifted(info->rd, info->rd_dict_shifted);
      index_at += sizeof(RdHeader);
    }
    if (size - index_at < size_t{rg_header.vector_count} * sizeof(uint32_t)) {
      return Status::Truncated("truncated vector offset index", index_at);
    }

    uint32_t prev_vec_off = 0;
    for (uint32_t v = 0; v < rg_header.vector_count; ++v) {
      uint32_t vec_off;
      std::memcpy(&vec_off, data + index_at + v * sizeof(uint32_t), sizeof(vec_off));
      if (vec_off % 8 != 0) {
        return Status::Corrupt("misaligned vector offset",
                               index_at + v * sizeof(uint32_t));
      }
      if (v > 0 && vec_off <= prev_vec_off) {
        return Status::Corrupt("vector offsets not increasing",
                               index_at + v * sizeof(uint32_t));
      }
      prev_vec_off = vec_off;
      const size_t vec_at = off + vec_off;
      if (vec_at >= size || size - vec_at < 16) {
        return Status::Corrupt("vector offset out of bounds",
                               index_at + v * sizeof(uint32_t));
      }

      const size_t global_v = first_vector + v;
      const size_t expected_n = std::min<size_t>(
          kVectorSize, ctx.header.value_count - global_v * kVectorSize);

      // Verify the full payload extent of the vector (each packed width
      // unit occupies 128 bytes for both lane types), then the exception
      // positions, which index the decode output array.
      VectorRecord& rec = records[v];
      rec.offset = vec_at;
      size_t exc_pos_at;
      if (info->scheme == Scheme::kAlp) {
        AlpVectorHeader vh;
        std::memcpy(&vh, data + vec_at, sizeof(vh));
        if (vh.e > AlpTraits<T>::kMaxExponent || vh.f > vh.e) {
          return Status::Corrupt("ALP exponent/factor out of range", vec_at);
        }
        if (vh.width > AlpTraits<T>::kValueBits) {
          return Status::Corrupt("packed width out of range", vec_at);
        }
        if (vh.int_encoding > kIntDelta ||
            (vh.int_encoding == kIntDelta && sizeof(T) != 8)) {
          return Status::Corrupt("unknown integer encoding", vec_at);
        }
        if (vh.n != expected_n || vh.exc_count > vh.n) {
          return Status::Corrupt("vector counts out of range", vec_at);
        }
        rec.n = vh.n;
        rec.exc_count = vh.exc_count;
        rec.width = vh.width;
        rec.e = vh.e;
        rec.f = vh.f;
        rec.int_encoding = vh.int_encoding;
        rec.base = vh.base;
        exc_pos_at = vec_at + sizeof(AlpVectorHeader) + size_t{vh.width} * 128 +
                     size_t{vh.exc_count} * sizeof(T);
      } else {
        RdVectorHeader vh;
        std::memcpy(&vh, data + vec_at, sizeof(vh));
        if (vh.n != expected_n || vh.exc_count > vh.n) {
          return Status::Corrupt("vector counts out of range", vec_at);
        }
        rec.n = vh.n;
        rec.exc_count = vh.exc_count;
        exc_pos_at = vec_at + sizeof(RdVectorHeader) +
                     (size_t{rd.right_bits} + rd.dict_width) * 128 +
                     size_t{vh.exc_count} * sizeof(uint16_t);
      }
      const size_t end = exc_pos_at + size_t{rec.exc_count} * sizeof(uint16_t);
      if (end > size) return Status::Truncated("vector payload truncated", vec_at);
      for (uint16_t i = 0; i < rec.exc_count; ++i) {
        uint16_t pos;
        std::memcpy(&pos, data + exc_pos_at + i * sizeof(uint16_t), sizeof(pos));
        if (pos >= expected_n) {
          return Status::Corrupt("exception position out of range",
                                 exc_pos_at + i * sizeof(uint16_t));
        }
      }
    }
    return Status::Ok();
  }

  /// Parses a whole column into \p out. The per-rowgroup phases run through
  /// \p pool (inline when null). Phase order — checksums for all rowgroups,
  /// then zone map, then the structural walk for all rowgroups — is fixed,
  /// and within a phase the lowest-indexed rowgroup's failure is reported,
  /// so serial and parallel return identical Statuses.
  static Status Parse(const uint8_t* data, size_t size, ThreadPool* pool,
                      const OpContext* octx, Reader* out) {
    ValidationContext ctx;
    Status s = ValidateHeaderAndIndex<T>(data, size, &ctx);
    if (!s.ok()) return s;

    // Cancellation checkpoints: once per rowgroup per phase (a rowgroup is
    // the unit of work here, hundreds of microseconds). The checkpoint
    // result shares the per-phase lowest-rowgroup-wins reduction with real
    // failures.
    const size_t rowgroups = ctx.rg_offsets.size();
    if (ctx.header.version >= 3) {
      s = RunPhase(pool, rowgroups, octx, [&](size_t rg) {
        ALP_OBS_SPAN(checksum_span, "decompress.validate_checksum", 1);
        Status fs = fault::Check("column.validate_checksum");
        return fs.ok() ? ValidateRowgroupChecksum(data, size, ctx, rg) : fs;
      });
      if (!s.ok()) return s;
    }

    s = ValidateZoneMap(data, ctx);
    if (!s.ok()) return s;

    out->rowgroups_.resize(rowgroups);
    out->vectors_.resize(ctx.total_vectors);
    s = RunPhase(pool, rowgroups, octx, [&](size_t rg) {
      ALP_OBS_SPAN(structure_span, "decompress.validate_structure", 1);
      return WalkRowgroup(data, size, ctx, rg, &out->rowgroups_[rg],
                          out->vectors_.data() + rg * kRowgroupVectors);
    });
    if (!s.ok()) return s;

    out->data_ = data;
    out->size_ = size;
    out->value_count_ = ctx.header.value_count;
    out->vector_count_ = ctx.total_vectors;
    out->version_ = ctx.header.version;
    out->stats_.resize(ctx.total_vectors);
    if (!out->stats_.empty()) {
      std::memcpy(out->stats_.data(), data + ctx.layout.stats_at,
                  out->stats_.size() * sizeof(VectorStats));
    }
    return Status::Ok();
  }

  /// Parses a standalone rowgroup chunk: rowgroup 0 of a one-rowgroup
  /// column starting at offset 0 (the payload format is position
  /// independent, so the walk applies unchanged with chunk offsets).
  static Status ParseChunk(const uint8_t* chunk, size_t chunk_size,
                           uint64_t value_count, Reader* out) {
    if (chunk == nullptr || chunk_size < sizeof(RowgroupHeader)) {
      return Status::Truncated("chunk smaller than the rowgroup header");
    }
    if (value_count == 0 || value_count > kRowgroupSize) {
      return Status::Corrupt("rowgroup value count out of range");
    }
    ValidationContext ctx;
    ctx.header = ColumnHeader{};
    ctx.header.value_count = value_count;
    ctx.total_vectors = (value_count + kVectorSize - 1) / kVectorSize;
    ctx.rg_offsets.assign(1, 0);
    out->rowgroups_.resize(1);
    out->vectors_.resize(ctx.total_vectors);
    Status s = WalkRowgroup(chunk, chunk_size, ctx, 0, &out->rowgroups_[0],
                            out->vectors_.data());
    if (!s.ok()) return s;
    out->data_ = chunk;
    out->size_ = chunk_size;
    out->value_count_ = value_count;
    out->vector_count_ = ctx.total_vectors;
    out->version_ = kColumnFormatVersion;
    return Status::Ok();
  }

  /// Parse for callers that want only the verdict.
  static Status Validate(const uint8_t* data, size_t size, ThreadPool* pool,
                         const OpContext* octx) {
    Reader scratch;
    return Parse(data, size, pool, octx, &scratch);
  }

 private:
  /// Runs \p check(rg) for every rowgroup on \p pool, polling \p octx first,
  /// and returns the lowest-indexed rowgroup's failure.
  template <typename Check>
  static Status RunPhase(ThreadPool* pool, size_t rowgroups, const OpContext* octx,
                         Check&& check) {
    std::vector<Status> results(rowgroups);
    ParallelFor(pool, rowgroups, [&](size_t rg) {
      if (octx != nullptr) {
        Status cs = octx->Check();
        if (!cs.ok()) {
          results[rg] = std::move(cs);
          return;
        }
      }
      results[rg] = check(rg);
    });
    for (Status& r : results) {
      if (!r.ok()) return std::move(r);
    }
    return Status::Ok();
  }
};

}  // namespace internal

template <typename T>
Status ValidateColumnEx(const uint8_t* data, size_t size,
                        const OpContext* ctx) {
  return internal::ColumnParser<T>::Validate(data, size, nullptr, ctx);
}

template <typename T>
Status ValidateColumnParallelEx(const uint8_t* data, size_t size,
                                ThreadPool* pool, const OpContext* ctx) {
  return internal::ColumnParser<T>::Validate(data, size, pool, ctx);
}

template <typename T>
bool ValidateColumn(const uint8_t* data, size_t size, std::string* reason) {
  const Status s = ValidateColumnEx<T>(data, size);
  if (s.ok()) {
    if (reason != nullptr) reason->clear();
    return true;
  }
  if (reason != nullptr) *reason = s.message();
  return false;
}

template <typename T>
Status DecompressColumn(const std::vector<uint8_t>& buffer, T* out) {
  StatusOr<ColumnReader<T>> reader = ColumnReader<T>::Open(buffer.data(), buffer.size());
  if (!reader.ok()) return reader.status();
  return reader->TryDecodeAll(out);
}

// ---------------------------------------------------------------------------
// ColumnReader
// ---------------------------------------------------------------------------

template <typename T>
StatusOr<ColumnReader<T>> ColumnReader<T>::Open(const uint8_t* data, size_t size) {
  return OpenParallel(data, size, nullptr);
}

template <typename T>
StatusOr<ColumnReader<T>> ColumnReader<T>::OpenParallel(const uint8_t* data,
                                                        size_t size,
                                                        ThreadPool* pool) {
  ColumnReader<T> reader;
  Status s = internal::ColumnParser<T>::Parse(data, size, pool, nullptr, &reader);
  if (!s.ok()) return s;
  return reader;
}

template <typename T>
StatusOr<ColumnReader<T>> ColumnReader<T>::OpenRowgroupChunk(
    const uint8_t* chunk, size_t chunk_size, uint64_t value_count) {
  ColumnReader<T> reader;
  Status s = internal::ColumnParser<T>::ParseChunk(chunk, chunk_size, value_count,
                                                   &reader);
  if (!s.ok()) return s;
  return reader;
}

template <typename T>
unsigned ColumnReader<T>::VectorLength(size_t v) const {
  const size_t begin = v * kVectorSize;
  return static_cast<unsigned>(std::min<size_t>(kVectorSize, value_count_ - begin));
}

template <typename T>
Scheme ColumnReader<T>::VectorScheme(size_t v) const {
  return rowgroups_[v / kRowgroupVectors].scheme;
}

template <typename T>
void ColumnReader<T>::DecodeAlpVector(const internal::VectorRecord& rec, T* out) const {
  using Uint = typename AlpTraits<T>::Uint;
  const uint8_t* at = data_ + rec.offset + sizeof(AlpVectorHeader);
  const Uint* packed = reinterpret_cast<const Uint*>(at);
  const Combination c{rec.e, rec.f};

  const auto decode_full = [&](T* dst) {
    if (rec.int_encoding == kIntDelta) {
      if constexpr (sizeof(T) == 8) {
        // Delta path: unpack + prefix sum, then the ALP_dec multiplies.
        fastlanes::DeltaParams delta;
        delta.first = static_cast<int64_t>(rec.base);
        delta.width = rec.width;
        int64_t ints[kVectorSize];
        fastlanes::DeltaDecode(packed, ints, delta);
        alp::DecodeVector<T>(ints, c, dst);
      }
      return;
    }
    fastlanes::FforParams ffor;
    ffor.base = rec.base;
    ffor.width = rec.width;
    kernels::DecodeAlpFused<T>(packed, ffor, c, dst);
  };

  // Full vectors decode straight into out; only a column's short tail
  // vector is staged, because out holds just its n values.
  if (rec.n == kVectorSize) {
    decode_full(out);
  } else {
    alignas(64) T full[kVectorSize];
    decode_full(full);
    std::memcpy(out, full, rec.n * sizeof(T));
  }

  // Exceptions: value bits array followed by position array.
  const uint8_t* exc_at = at + size_t{rec.width} * 128;
  kernels::PatchExceptionBits<T>(
      out, reinterpret_cast<const Uint*>(exc_at),
      reinterpret_cast<const uint16_t*>(exc_at + size_t{rec.exc_count} * sizeof(Uint)),
      rec.exc_count);
}

template <typename T>
void ColumnReader<T>::DecodeRdVector(const RowgroupInfo& rg,
                                     const internal::VectorRecord& rec, T* out) const {
  using Uint = typename AlpTraits<T>::Uint;
  const uint8_t* at = data_ + rec.offset + sizeof(RdVectorHeader);
  const Uint* packed_right = reinterpret_cast<const Uint*>(at);
  at += size_t{rg.rd.right_bits} * 128;
  const Uint* packed_codes = reinterpret_cast<const Uint*>(at);
  at += size_t{rg.rd.dict_width} * 128;
  const uint16_t* exceptions = reinterpret_cast<const uint16_t*>(at);
  const uint16_t* exc_positions = exceptions + rec.exc_count;

  // Fused unpack-right || unpack-codes || dictionary-OR through the
  // dispatched kernel tier, then the (rare) left-part exception patches.
  const auto decode_full = [&](T* dst) {
    kernels::RdDecodeFused<T>(packed_right, packed_codes, rg.rd.right_bits,
                              rg.rd.dict_width, rg.rd_dict_shifted, dst);
  };
  if (rec.n == kVectorSize) {
    decode_full(out);
  } else {
    alignas(64) T full[kVectorSize];
    decode_full(full);
    std::memcpy(out, full, rec.n * sizeof(T));
  }
  RdPatchExceptions(out, exceptions, exc_positions, rec.exc_count, rg.rd.right_bits);
}

template <typename T>
uint16_t ColumnReader<T>::VectorExceptionCount(size_t v) const {
  return v < vector_count_ ? vectors_[v].exc_count : 0;
}

template <typename T>
bool ColumnReader<T>::GetPackedVectorView(size_t v, PackedVectorView* view) const {
  using Uint = typename AlpTraits<T>::Uint;
  if (v >= vector_count_) return false;
  const internal::VectorRecord& rec = vectors_[v];
  if (VectorScheme(v) != Scheme::kAlp || rec.int_encoding != kIntFfor) {
    return false;  // ALP_rd and Delta have no lane frame.
  }
  const uint8_t* at = data_ + rec.offset + sizeof(AlpVectorHeader);
  view->packed = reinterpret_cast<const Uint*>(at);
  at += size_t{rec.width} * 128;
  view->exc_bits = reinterpret_cast<const Uint*>(at);
  view->exc_positions =
      reinterpret_cast<const uint16_t*>(at + size_t{rec.exc_count} * sizeof(Uint));
  view->ffor.base = rec.base;
  view->ffor.width = rec.width;
  view->c = Combination{rec.e, rec.f};
  view->n = rec.n;
  view->exc_count = rec.exc_count;
  return true;
}

template <typename T>
void ColumnReader<T>::DecodeVector(size_t v, T* out) const {
  const RowgroupInfo& rg = rowgroups_[v / kRowgroupVectors];
  if (rg.scheme == Scheme::kAlp) {
    DecodeAlpVector(vectors_[v], out);
  } else {
    DecodeRdVector(rg, vectors_[v], out);
  }
}

template <typename T>
Status ColumnReader<T>::TryDecodeVector(size_t v, T* out,
                                        const OpContext* ctx) const {
  if (ctx != nullptr) {
    Status cs = ctx->Check();
    if (!cs.ok()) return cs;
  }
  ALP_FAULT("column.decode_vector");
  if (v >= vector_count_) {
    return Status::Corrupt("vector index out of range");
  }
  DecodeVector(v, out);
  return Status::Ok();
}

template <typename T>
Status ColumnReader<T>::TryDecodeAll(T* out, const OpContext* ctx) const {
  ALP_OBS_SPAN(decode_span, "decompress.column", value_count_);
  for (size_t v = 0; v < vector_count_; ++v) {
    Status s = TryDecodeVector(v, out + v * kVectorSize, ctx);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

template <typename T>
Status ColumnReader<T>::TryDecodeAllParallel(T* out, ThreadPool* pool,
                                             const OpContext* ctx) const {
  // Partition by rowgroup-sized blocks of *global vector indexes* — the
  // exact ranges the serial loop walks — so each task writes a disjoint
  // region of out and hits the same per-vector Statuses the serial scan
  // would. A task stops at its block's first failure; the lowest-indexed
  // block's Status wins, which is the Status TryDecodeAll returns.
  const size_t blocks = (vector_count_ + kRowgroupVectors - 1) / kRowgroupVectors;
  std::vector<Status> results(blocks);
  ParallelFor(pool, blocks, [&](size_t b) {
    const size_t v_begin = b * kRowgroupVectors;
    const size_t v_end =
        std::min<size_t>((b + 1) * kRowgroupVectors, vector_count_);
    ALP_OBS_SPAN(rg_span, "decompress.rowgroup",
                 std::min<size_t>(v_end * kVectorSize, value_count_) -
                     v_begin * kVectorSize);
    ALP_OBS_ONLY({
      const int worker = ThreadPool::CurrentWorkerIndex();
      if (worker >= 0) {
        static obs::Histogram& by_worker =
            obs::MetricRegistry::Global().GetHistogram(
                "decompress.rowgroups_by_worker",
                {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
                "worker");
        by_worker.Record(static_cast<uint64_t>(worker));
      }
    });
    for (size_t v = v_begin; v < v_end; ++v) {
      Status s = TryDecodeVector(v, out + v * kVectorSize, ctx);
      if (!s.ok()) {
        results[b] = std::move(s);
        return;
      }
    }
  });
  for (Status& s : results) {
    if (!s.ok()) return std::move(s);
  }
  return Status::Ok();
}

namespace internal {

template <typename T>
StatusOr<size_t> ColumnIndexRegionSize(const uint8_t* header_bytes, size_t len) {
  if (header_bytes == nullptr || len < sizeof(ColumnHeader)) {
    return Status::Truncated("buffer smaller than the column header");
  }
  ColumnHeader header;
  std::memcpy(&header, header_bytes, sizeof(header));
  if (header.magic != kMagic) return Status::Corrupt("bad magic", 0);
  if (header.version < kMinVersion || header.version > kVersion) {
    return Status::UnsupportedVersion("unsupported format version",
                                      offsetof(ColumnHeader, version));
  }
  if (header.type != TypeTag<T>()) {
    return Status::Corrupt("value type tag mismatch",
                           offsetof(ColumnHeader, type));
  }
  if (header.value_count > (uint64_t{1} << 62)) {
    return Status::Corrupt("value count implausibly large",
                           offsetof(ColumnHeader, value_count));
  }
  const size_t total_vectors =
      (header.value_count + kVectorSize - 1) / kVectorSize;
  const size_t expected_rowgroups = std::max<size_t>(
      (total_vectors + kRowgroupVectors - 1) / kRowgroupVectors, 1);
  if (header.rowgroup_count != expected_rowgroups) {
    return Status::Corrupt("rowgroup count inconsistent with value count",
                           offsetof(ColumnHeader, rowgroup_count));
  }
  return ComputeIndexLayout(header.version, header.rowgroup_count,
                            total_vectors)
      .payload_begin;
}

template <typename T>
StatusOr<ColumnIndex> ParseColumnIndex(const uint8_t* region,
                                       size_t region_size, uint64_t file_size) {
  StatusOr<size_t> need = ColumnIndexRegionSize<T>(region, region_size);
  if (!need.ok()) return need.status();
  if (*need > region_size || region_size > file_size) {
    return Status::Truncated("truncated index sections", sizeof(ColumnHeader));
  }
  // ValidateHeaderAndIndex only dereferences bytes below payload_begin
  // (all present in the region); the full file size bounds the rowgroup
  // offsets exactly as it would for an in-memory buffer.
  ValidationContext ctx;
  Status s = ValidateHeaderAndIndex<T>(region, file_size, &ctx);
  if (!s.ok()) return s;
  s = ValidateZoneMap(region, ctx);
  if (!s.ok()) return s;

  ColumnIndex index;
  index.version = ctx.header.version;
  index.value_count = ctx.header.value_count;
  index.total_vectors = ctx.total_vectors;
  index.payload_begin = ctx.layout.payload_begin;
  index.rowgroup_offsets = std::move(ctx.rg_offsets);
  if (ctx.header.version >= 3) {
    index.rowgroup_checksums.resize(index.rowgroup_offsets.size());
    std::memcpy(index.rowgroup_checksums.data(),
                region + ctx.layout.checksums_at,
                index.rowgroup_checksums.size() * sizeof(uint64_t));
  }
  index.stats.resize(ctx.total_vectors);
  std::memcpy(index.stats.data(), region + ctx.layout.stats_at,
              index.stats.size() * sizeof(VectorStats));
  return index;
}

template StatusOr<size_t> ColumnIndexRegionSize<double>(const uint8_t*, size_t);
template StatusOr<size_t> ColumnIndexRegionSize<float>(const uint8_t*, size_t);
template StatusOr<ColumnIndex> ParseColumnIndex<double>(const uint8_t*, size_t,
                                                        uint64_t);
template StatusOr<ColumnIndex> ParseColumnIndex<float>(const uint8_t*, size_t,
                                                       uint64_t);

}  // namespace internal

// ---------------------------------------------------------------------------
// ColumnMetaCursor
// ---------------------------------------------------------------------------

template <typename T>
StatusOr<ColumnMetaCursor<T>> ColumnMetaCursor<T>::Open(const uint8_t* data,
                                                        size_t size) {
  StatusOr<ColumnReader<T>> reader = ColumnReader<T>::Open(data, size);
  if (!reader.ok()) return reader.status();
  ColumnMetaCursor<T> cursor(std::move(reader).value());

  // Belt and braces for the byte accounting: the validator guarantees every
  // read stays in bounds, but the accounting additionally needs the
  // rowgroups to tile the payload region — first rowgroup right after the
  // index sections, offsets ascending. A buffer that passes validation yet
  // breaks the tiling would silently unbalance the explain report, so it is
  // rejected here instead.
  const ColumnReader<T>& r = cursor.reader_;
  const IndexLayout layout = ComputeIndexLayout(
      r.version_, static_cast<uint32_t>(r.rowgroups_.size()), r.vector_count_);
  if (!r.rowgroups_.empty() &&
      r.rowgroups_.front().byte_offset != layout.payload_begin) {
    return Status::Corrupt("first rowgroup does not start at payload begin",
                           r.rowgroups_.front().byte_offset);
  }
  if (r.rowgroups_.empty() && layout.payload_begin != size) {
    return Status::Corrupt("empty column with trailing bytes",
                           layout.payload_begin);
  }
  for (size_t rg = 0; rg + 1 < r.rowgroups_.size(); ++rg) {
    if (r.rowgroups_[rg + 1].byte_offset <= r.rowgroups_[rg].byte_offset) {
      return Status::Corrupt("rowgroup offsets not strictly ascending",
                             r.rowgroups_[rg + 1].byte_offset);
    }
  }
  return cursor;
}

template <typename T>
size_t ColumnMetaCursor<T>::column_header_bytes() const {
  return sizeof(ColumnHeader);
}

template <typename T>
size_t ColumnMetaCursor<T>::rowgroup_index_bytes() const {
  return reader_.rowgroups_.size() * sizeof(uint64_t);
}

template <typename T>
size_t ColumnMetaCursor<T>::checksum_bytes() const {
  if (reader_.format_version() < 3) return 0;
  return reader_.rowgroups_.size() * sizeof(uint64_t) + sizeof(uint64_t);
}

template <typename T>
size_t ColumnMetaCursor<T>::zone_map_bytes() const {
  return reader_.vector_count_ * sizeof(VectorStats);
}

template <typename T>
size_t ColumnMetaCursor<T>::RowgroupExtent(size_t rg) const {
  const auto& rowgroups = reader_.rowgroups_;
  const size_t end = rg + 1 < rowgroups.size() ? rowgroups[rg + 1].byte_offset
                                               : reader_.size_;
  return end - rowgroups[rg].byte_offset;
}

template <typename T>
StatusOr<RowgroupMeta> ColumnMetaCursor<T>::Rowgroup(size_t rg) const {
  if (rg >= reader_.rowgroups_.size()) {
    return Status::Corrupt("rowgroup index out of range");
  }
  const auto& info = reader_.rowgroups_[rg];
  RowgroupMeta meta;
  meta.index = rg;
  meta.byte_offset = info.byte_offset;
  meta.byte_extent = RowgroupExtent(rg);
  meta.scheme = info.scheme;
  meta.vector_count = info.vector_count;
  meta.first_vector = info.first_vector;
  // Everything before the first vector is rowgroup-level header: the
  // RowgroupHeader, the RdHeader when present, the vector offset index and
  // its alignment pad. The 0-vector rowgroup of an empty column is all
  // header.
  meta.header_bytes =
      info.vector_count > 0
          ? reader_.vectors_[info.first_vector].offset - info.byte_offset
          : meta.byte_extent;
  if (meta.header_bytes > meta.byte_extent) {
    return Status::Corrupt("rowgroup header overruns rowgroup extent",
                           info.byte_offset);
  }
  if (info.scheme == Scheme::kAlpRd) {
    meta.rd_right_bits = info.rd.right_bits;
    meta.rd_dict_width = info.rd.dict_width;
    meta.rd_dict_size = info.rd.dict_size;
  }
  return meta;
}

template <typename T>
StatusOr<VectorMeta> ColumnMetaCursor<T>::Vector(size_t v) const {
  using Uint = typename AlpTraits<T>::Uint;
  if (v >= reader_.vector_count_) {
    return Status::Corrupt("vector index out of range");
  }
  const size_t rg = v / kRowgroupVectors;
  const auto& info = reader_.rowgroups_[rg];
  const internal::VectorRecord& rec = reader_.vectors_[v];
  const size_t local_v = v - info.first_vector;
  const size_t rg_extent = RowgroupExtent(rg);
  const size_t vec_off = rec.offset - info.byte_offset;
  const size_t vec_end = local_v + 1 < info.vector_count
                             ? reader_.vectors_[v + 1].offset - info.byte_offset
                             : rg_extent;
  if (vec_end < vec_off || vec_end > rg_extent) {
    return Status::Corrupt("vector offsets not ascending within rowgroup",
                           rec.offset);
  }

  VectorMeta meta;
  meta.index = v;
  meta.rowgroup = rg;
  meta.scheme = info.scheme;
  meta.n = rec.n;
  meta.byte_offset = rec.offset;
  meta.byte_extent = vec_end - vec_off;
  meta.exc_count = rec.exc_count;
  if (info.scheme == Scheme::kAlpRd) {
    meta.bit_width = static_cast<unsigned>(info.rd.right_bits) + info.rd.dict_width;
    meta.header_bytes = sizeof(RdVectorHeader);
    // Exception left parts (u16) + positions (u16).
    meta.exception_bytes = static_cast<size_t>(rec.exc_count) * 4;
  } else {
    meta.e = rec.e;
    meta.f = rec.f;
    meta.int_encoding = rec.int_encoding;
    meta.base = rec.base;
    meta.bit_width = rec.width;
    meta.header_bytes = sizeof(AlpVectorHeader);
    // Exception value bits (sizeof(T)) + positions (u16).
    meta.exception_bytes = static_cast<size_t>(rec.exc_count) * (sizeof(T) + 2);
  }
  meta.packed_bytes =
      static_cast<size_t>(meta.bit_width) * fastlanes::kLanes<Uint> * sizeof(Uint);

  const size_t used = meta.header_bytes + meta.packed_bytes + meta.exception_bytes;
  if (used > meta.byte_extent) {
    return Status::Corrupt("vector streams overrun vector extent",
                           meta.byte_offset);
  }
  meta.padding_bytes = meta.byte_extent - used;
  if (meta.padding_bytes >= 8) {
    // Streams are 8-aligned with at most 7 pad bytes; more means the offset
    // index left a hole the accounting cannot attribute.
    return Status::Corrupt("unaccounted gap after vector streams",
                           meta.byte_offset + used);
  }
  return meta;
}

template <typename T>
Status ColumnMetaCursor<T>::ReadExceptionPositions(
    const VectorMeta& vm, std::vector<uint16_t>* out) const {
  out->clear();
  if (vm.exc_count == 0) return Status::Ok();
  // Positions are the trailing stream of the exception section.
  const size_t positions_at = vm.byte_offset + vm.header_bytes +
                              vm.packed_bytes + vm.exception_bytes -
                              static_cast<size_t>(vm.exc_count) * 2;
  ByteReader reader(reader_.data_, reader_.size_);
  reader.SeekTo(positions_at);
  out->resize(vm.exc_count);
  reader.ReadArray(out->data(), out->size());
  if (reader.failed()) {
    out->clear();
    return Status::Corrupt("exception positions out of bounds", positions_at);
  }
  return Status::Ok();
}

template std::vector<uint8_t> CompressColumn<double>(const double*, size_t,
                                                     const SamplerConfig&,
                                                     CompressionInfo*);
template std::vector<uint8_t> CompressColumn<float>(const float*, size_t,
                                                    const SamplerConfig&,
                                                    CompressionInfo*);
template std::vector<uint8_t> CompressColumnParallel<double>(const double*, size_t,
                                                             const SamplerConfig&,
                                                             CompressionInfo*,
                                                             ThreadPool*);
template std::vector<uint8_t> CompressColumnParallel<float>(const float*, size_t,
                                                            const SamplerConfig&,
                                                            CompressionInfo*,
                                                            ThreadPool*);
template class ColumnReader<double>;
template class ColumnReader<float>;
template class ColumnMetaCursor<double>;
template class ColumnMetaCursor<float>;
template Status ValidateColumnEx<double>(const uint8_t*, size_t,
                                         const OpContext*);
template Status ValidateColumnEx<float>(const uint8_t*, size_t,
                                        const OpContext*);
template Status ValidateColumnParallelEx<double>(const uint8_t*, size_t,
                                                 ThreadPool*, const OpContext*);
template Status ValidateColumnParallelEx<float>(const uint8_t*, size_t,
                                                ThreadPool*, const OpContext*);
template bool ValidateColumn<double>(const uint8_t*, size_t, std::string*);
template bool ValidateColumn<float>(const uint8_t*, size_t, std::string*);
template Status DecompressColumn<double>(const std::vector<uint8_t>&, double*);
template Status DecompressColumn<float>(const std::vector<uint8_t>&, float*);

}  // namespace alp
