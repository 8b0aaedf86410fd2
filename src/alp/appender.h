#ifndef ALP_ALP_APPENDER_H_
#define ALP_ALP_APPENDER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alp/column.h"

/// \file appender.h
/// Streaming column construction: feed values incrementally (e.g. from an
/// ingest pipeline); every completed rowgroup (100 x 1024 values) is
/// compressed and released immediately, so the appender's memory footprint
/// stays at one rowgroup of raw values plus the already-compressed
/// segments. Finish() assembles the same self-describing buffer
/// CompressColumn produces - readers cannot tell the difference.

namespace alp {

template <typename T>
class ColumnAppender {
 public:
  explicit ColumnAppender(SamplerConfig config = {}) : config_(config) {
    pending_.reserve(kRowgroupSize);
  }

  ColumnAppender(const ColumnAppender&) = delete;
  ColumnAppender& operator=(const ColumnAppender&) = delete;
  ColumnAppender(ColumnAppender&&) = default;
  ColumnAppender& operator=(ColumnAppender&&) = default;

  /// Appends one value; compresses a rowgroup when one fills up.
  void Append(T value) {
    pending_.push_back(value);
    if (pending_.size() == kRowgroupSize) FlushRowgroup();
  }

  /// Appends a batch of values.
  void AppendBatch(const T* values, size_t n) {
    size_t i = 0;
    while (i < n) {
      const size_t room = kRowgroupSize - pending_.size();
      const size_t take = n - i < room ? n - i : room;
      pending_.insert(pending_.end(), values + i, values + i + take);
      i += take;
      if (pending_.size() == kRowgroupSize) FlushRowgroup();
    }
  }

  /// Values appended so far.
  size_t value_count() const { return flushed_values_ + pending_.size(); }

  /// Compressed bytes already finalized (excludes the open rowgroup).
  size_t compressed_bytes() const {
    size_t total = 0;
    for (const auto& segment : segments_) total += segment.bytes.size();
    return total;
  }

  /// Compression counters accumulated so far.
  const CompressionInfo& info() const { return info_; }

  /// Flushes the tail rowgroup and assembles the column buffer. The
  /// appender is empty afterwards and can be reused.
  std::vector<uint8_t> Finish() {
    if (!pending_.empty() || segments_.empty()) FlushRowgroup();
    auto buffer = internal::AssembleColumnFromSegments<T>(
        flushed_values_, segments_, stats_);
    segments_.clear();
    stats_.clear();
    flushed_values_ = 0;
    info_ = CompressionInfo{};
    return buffer;
  }

 private:
  void FlushRowgroup() {
    segments_.push_back(internal::CompressRowgroupSegment<T>(
        pending_.data(), pending_.size(), config_, &stats_, &info_));
    flushed_values_ += pending_.size();
    pending_.clear();
  }

  SamplerConfig config_;
  std::vector<T> pending_;                     ///< The open (raw) rowgroup.
  std::vector<internal::RowgroupSegment> segments_; ///< Compressed rowgroups.
  std::vector<VectorStats> stats_;
  size_t flushed_values_ = 0;
  CompressionInfo info_;
};

}  // namespace alp

#endif  // ALP_ALP_APPENDER_H_
