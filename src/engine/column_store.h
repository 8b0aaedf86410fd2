#ifndef ALP_ENGINE_COLUMN_STORE_H_
#define ALP_ENGINE_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alp/column.h"
#include "codecs/codec.h"
#include "io/seekable_reader.h"
#include "util/cancellation.h"
#include "util/status.h"

/// \file column_store.h
/// Compressed column storage for the Tectorwise-style engine (Section 4.3):
/// a column is stored uncompressed, as an ALP column, or as per-rowgroup
/// blocks of any baseline codec, behind one scan-oriented interface that
/// surfaces data one rowgroup at a time (the scan operator then feeds it
/// vector-at-a-time to its consumer).

namespace alp::engine {

/// One stored (possibly compressed) column of doubles.
class StoredColumn {
 public:
  /// Keeps the raw values (the paper's "Uncompressed" row).
  static StoredColumn MakeUncompressed(std::vector<double> values);

  /// ALP column format.
  static StoredColumn MakeAlp(const double* data, size_t n);

  /// Per-rowgroup blocks compressed with \p codec (the codec is owned).
  static StoredColumn MakeCodec(std::unique_ptr<codecs::DoubleCodec> codec,
                                const double* data, size_t n);

  const std::string& scheme() const { return scheme_; }
  size_t value_count() const { return value_count_; }
  size_t rowgroup_count() const {
    return (value_count_ + kRowgroupSize - 1) / kRowgroupSize;
  }
  size_t compressed_bytes() const { return compressed_bytes_; }

  /// Values in rowgroup \p rg.
  unsigned RowgroupLength(size_t rg) const;

  /// For uncompressed columns: zero-copy view of a rowgroup (nullptr for
  /// compressed columns). SUM uses this to aggregate in place.
  const double* RowgroupPointer(size_t rg) const;

  /// For ALP columns: the vector-level reader with zone maps (nullptr for
  /// other storage). FILTER queries use it to skip compressed vectors.
  const ColumnReader<double>* AlpReader() const { return alp_reader_.get(); }

  /// Routes this column's decode paths through an out-of-core
  /// io::SeekableReader over its own compressed buffer, optionally sharing
  /// \p cache (which must outlive the column) with other columns. Only ALP
  /// columns are chunked; for other schemes this is an OK no-op. The
  /// prefetch pool is deliberately absent: engine operators and the server
  /// drive rowgroups from their own worker threads, and handing those
  /// threads' pool to the prefetcher would let a scan wait on tasks the
  /// occupied pool can never run. A non-empty \p label becomes the reader's
  /// per-column cache-counter label (io.cache.hits{column="<label>"}).
  Status EnableSeekable(io::DecodedVectorCache* cache, std::string label = {});

  /// Non-null once EnableSeekable succeeded; decode goes through the chunked
  /// fetch → verify → open → decode path and the shared cache.
  const io::SeekableReader<double>* Seekable() const { return seekable_.get(); }

  /// Decodes rowgroup \p rg into \p out (room for RowgroupLength(rg)).
  /// Seekable columns go through the chunked reader (cache, checksum
  /// verify, io.chunk_read fault site) with \p ctx polled per vector; other
  /// columns poll \p ctx once, then copy (uncompressed, modeling a
  /// buffer-pool read), decode through the reader Open built (ALP) or
  /// through the codec's TryDecompress, whose Status is returned. Engine
  /// operators use this so the same scan code serves in-memory and
  /// out-of-core columns.
  Status TryDecodeRowgroup(size_t rg, double* out,
                           const OpContext* ctx = nullptr) const;

 private:
  StoredColumn() = default;

  std::string scheme_;
  size_t value_count_ = 0;
  size_t compressed_bytes_ = 0;

  std::vector<double> raw_;                        // kUncompressed.
  std::vector<uint8_t> alp_buffer_;                // kAlp.
  std::unique_ptr<ColumnReader<double>> alp_reader_;
  std::unique_ptr<codecs::DoubleCodec> codec_;     // kCodec.
  std::vector<std::vector<uint8_t>> codec_blocks_;

  // Out-of-core view over alp_buffer_ (EnableSeekable). shared_ptr because
  // SeekableReader::Open hands ownership to prefetch-capable readers; the
  // MemorySource points at alp_buffer_'s heap storage, which is stable
  // across moves of this StoredColumn (the class is move-only).
  std::shared_ptr<io::SeekableReader<double>> seekable_;
};

}  // namespace alp::engine

#endif  // ALP_ENGINE_COLUMN_STORE_H_
