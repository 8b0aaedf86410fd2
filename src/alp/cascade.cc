#include "alp/cascade.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "alp/column.h"
#include "fastlanes/dict.h"
#include "fastlanes/ffor.h"
#include "fastlanes/rle.h"
#include "util/serialize.h"

namespace alp {
namespace {

struct CascadeHeader {
  uint8_t strategy;
  uint8_t pad[7];
  uint64_t value_count;
};
static_assert(sizeof(CascadeHeader) == 16);

/// FFOR-packs an arbitrary-length unsigned integer column in 1024-value
/// blocks (tail padded with the last value). Used for dictionary codes and
/// run lengths.
void WriteFforColumn(const uint64_t* values, size_t n, ByteBuffer* out) {
  out->Append(static_cast<uint64_t>(n));
  const size_t blocks = (n + kVectorSize - 1) / kVectorSize;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t off = b * kVectorSize;
    const size_t len = std::min<size_t>(kVectorSize, n - off);
    int64_t block[kVectorSize];
    std::memcpy(block, values + off, len * sizeof(uint64_t));
    for (size_t i = len; i < kVectorSize; ++i) block[i] = block[len - 1];
    const auto params = fastlanes::FforAnalyze(block, kVectorSize);
    uint64_t packed[kVectorSize];
    fastlanes::FforEncode(block, packed, params);
    out->Append(static_cast<uint8_t>(params.width));
    out->AlignTo(8);
    out->Append(params.base);
    out->AppendArray(packed, static_cast<size_t>(params.width) * 16);
  }
}

/// Decodes a WriteFforColumn column that must hold exactly \p expect
/// values, handing each 1024-value block to \p consume(values, len), which
/// returns a Status. Widths and payload extents are checked before any
/// block is unpacked, and nothing is sized from the stored count.
template <typename Consume>
Status ReadFforColumn(ByteReader* reader, uint64_t expect, Consume&& consume) {
  const size_t at = reader->position();
  const uint64_t n = reader->Read<uint64_t>();
  if (reader->failed()) return Status::Truncated("cascade FFOR column count", at);
  if (n != expect) return Status::Corrupt("cascade FFOR column count mismatch", at);
  const uint64_t blocks = (n + kVectorSize - 1) / kVectorSize;
  for (uint64_t b = 0; b < blocks; ++b) {
    const size_t block_at = reader->position();
    const uint8_t width = reader->Read<uint8_t>();
    reader->AlignTo(8);
    fastlanes::FforParams params;
    params.base = reader->Read<uint64_t>();
    params.width = width;
    if (reader->failed()) return Status::Truncated("cascade FFOR block header", block_at);
    if (width > 64) return Status::Corrupt("cascade FFOR width out of range", block_at);
    const size_t packed_bytes = size_t{width} * 16 * sizeof(uint64_t);
    if (!reader->CanRead(packed_bytes)) {
      return Status::Truncated("cascade FFOR block payload", block_at);
    }
    int64_t block[kVectorSize];
    fastlanes::FforDecode(reinterpret_cast<const uint64_t*>(reader->Here()), block,
                          params);
    reader->Skip(packed_bytes);
    const size_t len = std::min<uint64_t>(kVectorSize, n - b * kVectorSize);
    Status s = consume(reinterpret_cast<const uint64_t*>(block), len);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

/// Appends a length-prefixed nested buffer.
void WriteNested(const std::vector<uint8_t>& nested, ByteBuffer* out) {
  out->Append(static_cast<uint64_t>(nested.size()));
  out->AppendArray(nested.data(), nested.size());
  out->AlignTo(8);
}

/// Opens the length-prefixed nested ALP column at the reader's position in
/// place (it starts 8-aligned) and moves the reader past it.
StatusOr<ColumnReader<double>> OpenNested(ByteReader* reader) {
  const size_t at = reader->position();
  const uint64_t size = reader->Read<uint64_t>();
  if (reader->failed()) return Status::Truncated("cascade nested column size", at);
  if (size > reader->Remaining()) {
    return Status::Truncated("cascade nested column", at);
  }
  StatusOr<ColumnReader<double>> nested =
      ColumnReader<double>::Open(reader->Here(), size);
  if (!nested.ok()) return nested.status();
  reader->Skip(size);
  reader->AlignTo(8);
  return nested;
}

}  // namespace

std::vector<uint8_t> CascadeCompress(const double* data, size_t n,
                                     const CascadeConfig& config, CascadeStrategy* used) {
  // Pick the strategy from a prefix sample.
  const size_t sample_n = std::min(config.sample_size, n);
  CascadeStrategy strategy = CascadeStrategy::kPlain;
  if (sample_n > 0) {
    const double avg_run = fastlanes::AverageRunLength(data, sample_n);
    const double dup_frac = fastlanes::DuplicateFraction(data, sample_n);
    if (avg_run >= config.min_avg_run_length) {
      strategy = CascadeStrategy::kRle;
    } else if (dup_frac >= config.min_duplicate_fraction) {
      strategy = CascadeStrategy::kDictionary;
    }
  }

  ByteBuffer out;
  CascadeHeader header{};
  header.value_count = n;

  if (strategy == CascadeStrategy::kDictionary) {
    auto dict = fastlanes::DictEncode(data, n, config.max_dictionary_size);
    if (!dict.has_value()) {
      strategy = CascadeStrategy::kPlain;  // Too many distinct values.
    } else {
      header.strategy = static_cast<uint8_t>(CascadeStrategy::kDictionary);
      out.Append(header);
      WriteNested(CompressColumn(dict->dictionary.data(), dict->dictionary.size(),
                                 config.alp),
                  &out);
      std::vector<uint64_t> codes(dict->codes.begin(), dict->codes.end());
      WriteFforColumn(codes.data(), codes.size(), &out);
      if (used != nullptr) *used = CascadeStrategy::kDictionary;
      return out.Take();
    }
  }

  if (strategy == CascadeStrategy::kRle) {
    const auto rle = fastlanes::RleEncode(data, n);
    header.strategy = static_cast<uint8_t>(CascadeStrategy::kRle);
    out.Append(header);
    WriteNested(CompressColumn(rle.values.data(), rle.values.size(), config.alp), &out);
    std::vector<uint64_t> lengths(rle.lengths.begin(), rle.lengths.end());
    WriteFforColumn(lengths.data(), lengths.size(), &out);
    if (used != nullptr) *used = CascadeStrategy::kRle;
    return out.Take();
  }

  header.strategy = static_cast<uint8_t>(CascadeStrategy::kPlain);
  out.Append(header);
  WriteNested(CompressColumn(data, n, config.alp), &out);
  if (used != nullptr) *used = CascadeStrategy::kPlain;
  return out.Take();
}

StatusOr<size_t> CascadeValueCount(const std::vector<uint8_t>& buffer) {
  ByteReader reader(buffer.data(), buffer.size());
  const auto header = reader.Read<CascadeHeader>();
  if (reader.failed()) return Status::Truncated("cascade header", 0);
  return header.value_count;
}

Status CascadeDecompress(const std::vector<uint8_t>& buffer, double* out, size_t n) {
  ByteReader reader(buffer.data(), buffer.size());
  const auto header = reader.Read<CascadeHeader>();
  if (reader.failed()) return Status::Truncated("cascade header", 0);
  if (header.value_count != n) {
    return Status::Corrupt("cascade value count does not match the request",
                           offsetof(CascadeHeader, value_count));
  }
  const auto strategy = static_cast<CascadeStrategy>(header.strategy);

  if (strategy == CascadeStrategy::kPlain) {
    StatusOr<ColumnReader<double>> values = OpenNested(&reader);
    if (!values.ok()) return values.status();
    if (values->value_count() != n) {
      return Status::Corrupt("cascade column count mismatch", sizeof(CascadeHeader));
    }
    return values->TryDecodeAll(out);
  }

  if (strategy == CascadeStrategy::kDictionary) {
    StatusOr<ColumnReader<double>> dict = OpenNested(&reader);
    if (!dict.ok()) return dict.status();
    std::vector<double> dictionary(dict->value_count());
    Status s = dict->TryDecodeAll(dictionary.data());
    if (!s.ok()) return s;
    size_t o = 0;
    const size_t codes_at = reader.position();
    return ReadFforColumn(&reader, n, [&](const uint64_t* codes, size_t len) {
      for (size_t i = 0; i < len; ++i) {
        if (codes[i] >= dictionary.size()) {
          return Status::Corrupt("cascade dictionary code out of range", codes_at);
        }
        out[o++] = dictionary[codes[i]];
      }
      return Status::Ok();
    });
  }

  if (strategy == CascadeStrategy::kRle) {
    StatusOr<ColumnReader<double>> runs = OpenNested(&reader);
    if (!runs.ok()) return runs.status();
    std::vector<double> run_values(runs->value_count());
    Status s = runs->TryDecodeAll(run_values.data());
    if (!s.ok()) return s;
    size_t o = 0;
    size_t r = 0;
    const size_t lengths_at = reader.position();
    s = ReadFforColumn(&reader, run_values.size(),
                       [&](const uint64_t* lengths, size_t len) {
      for (size_t i = 0; i < len; ++i, ++r) {
        if (lengths[i] > n - o) {
          return Status::Corrupt("cascade runs exceed the value count", lengths_at);
        }
        std::fill_n(out + o, lengths[i], run_values[r]);
        o += lengths[i];
      }
      return Status::Ok();
    });
    if (!s.ok()) return s;
    if (o != n) {
      return Status::Corrupt("cascade runs fall short of the value count", lengths_at);
    }
    return Status::Ok();
  }

  return Status::Corrupt("unknown cascade strategy", offsetof(CascadeHeader, strategy));
}

}  // namespace alp
