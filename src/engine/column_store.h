#ifndef ALP_ENGINE_COLUMN_STORE_H_
#define ALP_ENGINE_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alp/column.h"
#include "alp/executor.h"
#include "codecs/codec.h"
#include "io/decoded_vector_cache.h"
#include "util/status.h"

/// \file column_store.h
/// Compressed column storage for the Tectorwise-style engine (Section 4.3):
/// a column is stored uncompressed, as an ALP column, or as per-rowgroup
/// blocks of any baseline codec, and every query reads it through the one
/// exec::VectorSource it holds (alp/executor.h), one rowgroup at a time.

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
  size_t value_count() const { return source_->value_count(); }
  size_t compressed_bytes() const { return compressed_bytes_; }

  /// The one source every query reads this column through.
  const exec::VectorSource& source() const { return *source_; }

  /// The in-memory vector-level reader with zone maps of an ALP column;
  /// nullptr for other storage, and for an ALP column once EnableSeekable
  /// replaced it.
  const ColumnReader<double>* AlpReader() const { return alp_reader_.get(); }

  /// Whether queries read this column out of core, through an
  /// io::SeekableSource (EnableSeekable succeeded on an ALP column).
  bool seekable() const;

  /// Replaces an ALP column's source with an io::SeekableSource over its
  /// own compressed buffer: reads then go through the chunked fetch →
  /// verify → open path, sharing \p cache (which must outlive the column)
  /// with other columns. The in-memory reader is dropped, so AlpReader()
  /// returns null afterwards. For other schemes this is an OK no-op. The
  /// prefetch pool is deliberately absent: engine operators and the server
  /// drive rowgroups from their own worker threads, and handing those
  /// threads' pool to the prefetcher would let a scan wait on tasks the
  /// occupied pool can never run. A non-empty \p label becomes the reader's
  /// per-column cache-counter label (io.cache.hits{column="<label>"}).
  Status EnableSeekable(io::DecodedVectorCache* cache, std::string label = {});

 private:
  StoredColumn() = default;

  std::string scheme_;
  size_t compressed_bytes_ = 0;
  // The ALP bytes both ALP sources read. Its heap storage is stable across
  // moves of this (move-only) class, so readers may point into it.
  std::vector<uint8_t> alp_buffer_;
  std::unique_ptr<ColumnReader<double>> alp_reader_;
  std::unique_ptr<const exec::VectorSource> source_;
};

}  // namespace alp::engine

#endif  // ALP_ENGINE_COLUMN_STORE_H_
