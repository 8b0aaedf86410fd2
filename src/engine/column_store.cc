#include "engine/column_store.h"

#include <algorithm>
#include <cstdlib>

#include "io/seekable_reader.h"

namespace alp::engine {
namespace {

/// ALP in memory: lends the reader Open validated, with the global vector
/// index. No per-query work: the bytes were verified once.
class AlpSource final : public exec::VectorSource {
 public:
  explicit AlpSource(const ColumnReader<double>* reader)
      : VectorSource(reader->value_count(),
                     reader->vector_count() == 0 ? nullptr : &reader->Stats(0)),
        reader_(reader) {}

  Status Lend(size_t rg, const OpContext*, AlignedBuffer<double>*,
              exec::RowgroupLease* lease) const override {
    lease->reader = reader_;
    lease->first_vector = rg * kRowgroupVectors;
    return Status::Ok();
  }

 private:
  const ColumnReader<double>* reader_;
};

/// Uncompressed storage: lends the raw values in place.
class PlainSource final : public exec::VectorSource {
 public:
  explicit PlainSource(std::vector<double> values)
      : VectorSource(values.size(), nullptr), values_(std::move(values)) {}

  Status Lend(size_t rg, const OpContext*, AlignedBuffer<double>*,
              exec::RowgroupLease* lease) const override {
    lease->values = values_.data() + rg * kRowgroupSize;
    return Status::Ok();
  }

 private:
  std::vector<double> values_;
};

/// Block-codec storage: the whole rowgroup must be decompressed before any
/// vector of it can be read (the paper's Zstd disadvantage), so Lend
/// TryDecompresses it into the caller's buffer.
class CodecSource final : public exec::VectorSource {
 public:
  CodecSource(std::unique_ptr<codecs::DoubleCodec> codec,
              std::vector<std::vector<uint8_t>> blocks, size_t value_count)
      : VectorSource(value_count, nullptr),
        codec_(std::move(codec)),
        blocks_(std::move(blocks)) {}

  Status Lend(size_t rg, const OpContext*, AlignedBuffer<double>* buffer,
              exec::RowgroupLease* lease) const override {
    if (buffer->empty()) *buffer = AlignedBuffer<double>(kRowgroupSize);
    const std::vector<uint8_t>& block = blocks_[rg];
    Status s = codec_->TryDecompress(block.data(), block.size(),
                                     RowgroupLength(rg), buffer->data());
    if (!s.ok()) return s;
    lease->values = buffer->data();
    return Status::Ok();
  }

 private:
  std::unique_ptr<codecs::DoubleCodec> codec_;
  std::vector<std::vector<uint8_t>> blocks_;
};

}  // namespace

StoredColumn StoredColumn::MakeUncompressed(std::vector<double> values) {
  StoredColumn column;
  column.scheme_ = "Uncompressed";
  column.compressed_bytes_ = values.size() * sizeof(double);
  column.source_ = std::make_unique<PlainSource>(std::move(values));
  return column;
}

StoredColumn StoredColumn::MakeAlp(const double* data, size_t n) {
  StoredColumn column;
  column.scheme_ = "ALP";
  column.alp_buffer_ = CompressColumn(data, n);
  column.compressed_bytes_ = column.alp_buffer_.size();
  // Every reader comes from the one parse. The buffer was produced just
  // above, so a failure here is a bug in this library.
  StatusOr<ColumnReader<double>> reader =
      ColumnReader<double>::Open(column.alp_buffer_.data(), column.alp_buffer_.size());
  if (!reader.ok()) std::abort();
  column.alp_reader_ = std::make_unique<ColumnReader<double>>(std::move(reader).value());
  column.source_ = std::make_unique<AlpSource>(column.alp_reader_.get());
  return column;
}

StoredColumn StoredColumn::MakeCodec(std::unique_ptr<codecs::DoubleCodec> codec,
                                     const double* data, size_t n) {
  StoredColumn column;
  column.scheme_ = std::string(codec->name());
  const size_t rowgroups = (n + kRowgroupSize - 1) / kRowgroupSize;
  std::vector<std::vector<uint8_t>> blocks;
  blocks.reserve(rowgroups);
  for (size_t rg = 0; rg < rowgroups; ++rg) {
    const size_t off = rg * kRowgroupSize;
    const size_t len = std::min<size_t>(kRowgroupSize, n - off);
    blocks.push_back(codec->Compress(data + off, len));
    column.compressed_bytes_ += blocks.back().size();
  }
  column.source_ = std::make_unique<CodecSource>(std::move(codec), std::move(blocks), n);
  return column;
}

bool StoredColumn::seekable() const {
  return dynamic_cast<const io::SeekableSource*>(source_.get()) != nullptr;
}

Status StoredColumn::EnableSeekable(io::DecodedVectorCache* cache,
                                    std::string label) {
  if (alp_buffer_.empty()) return Status::Ok();  // Only ALP columns chunk.
  io::SeekableReaderOptions options;
  options.prefetch_pool = nullptr;  // See the header: operators own the pool.
  options.cache = cache;
  options.column_label = std::move(label);
  auto source = std::make_shared<io::MemorySource>(alp_buffer_.data(),
                                                   alp_buffer_.size());
  auto reader = io::SeekableReader<double>::Open(std::move(source), options);
  if (!reader.ok()) return reader.status();
  source_ = std::make_unique<io::SeekableSource>(std::move(*reader));
  alp_reader_.reset();
  return Status::Ok();
}

}  // namespace alp::engine
