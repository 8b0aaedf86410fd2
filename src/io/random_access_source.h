#ifndef ALP_IO_RANDOM_ACCESS_SOURCE_H_
#define ALP_IO_RANDOM_ACCESS_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

/// \file random_access_source.h
/// Storage abstraction under the out-of-core column reader (seekable_reader.h).
/// A RandomAccessSource is a positional byte store: fixed size, stateless
/// ReadAt, safe to call from any number of threads concurrently. Three
/// implementations cover the deployment spectrum:
///
///  - MemorySource   — wraps an in-memory buffer (the serving catalog and
///                     tests). Lends zero-copy Views, so a chunk is
///                     verified and decoded in place.
///  - MmapSource     — read-only mmap of a file. Fastest when the file fits
///                     comfortably in the page cache, but the mapping charges
///                     the whole file against the process's virtual address
///                     space — under an address-space rlimit, use pread.
///  - PreadSource    — ::pread on a file descriptor. Each chunk read costs a
///                     syscall but the process only ever holds the chunks it
///                     is touching, which is what lets a column 4x larger
///                     than the RSS budget scan to completion (the CI
///                     out-of-core job runs exactly that under `ulimit -v`).
///
/// Error model: syscall failures surface as Status::Io with errno text;
/// reads beyond size() are Status::Truncated (the caller computed an extent
/// the store cannot satisfy — with a verified offset index that means the
/// file shrank after open).
///
/// Zero-copy views: a source whose bytes are resident and cannot change
/// under the reader (the two memory sources) lends them through View, and
/// SeekableReader then verifies and decodes a chunk in place instead of
/// copying it. File sources lend nothing and are always copied: the file
/// behind a mapping can be rewritten after its chunk was verified, and a
/// verified copy cannot.

namespace alp::io {

/// Thread-safe positional reader over immutable bytes.
class RandomAccessSource {
 public:
  virtual ~RandomAccessSource() = default;

  /// Copies exactly \p len bytes starting at \p offset into \p out.
  virtual Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const = 0;

  /// Total addressable bytes.
  virtual uint64_t size() const = 0;

  /// Diagnostic name ("mmap:/path", "pread:/path", "memory").
  virtual const std::string& name() const = 0;

  /// The \p len bytes at \p offset in place, valid and unchanged for as
  /// long as the source lives; nullptr when the source lends no views or
  /// the range is out of bounds (ReadAt then reports why).
  virtual const uint8_t* View(uint64_t offset, size_t len) const {
    (void)offset;
    (void)len;
    return nullptr;
  }
};

/// Source over caller-owned memory. The buffer must outlive the source and
/// must not change while it lives: views of it are verified once and then
/// decoded as often as the cache keeps them (decode stays bounds-checked,
/// so a change can garble values but never read out of bounds).
class MemorySource final : public RandomAccessSource {
 public:
  MemorySource(const uint8_t* data, size_t size)
      : data_(data), size_(size), name_("memory") {}

  Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const override;
  uint64_t size() const override { return size_; }
  const std::string& name() const override { return name_; }
  const uint8_t* View(uint64_t offset, size_t len) const override;

 private:
  const uint8_t* data_;
  uint64_t size_;
  std::string name_;
};

/// Source over bytes it owns (e.g. a column buffer moved in).
class OwnedMemorySource final : public RandomAccessSource {
 public:
  explicit OwnedMemorySource(std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)), name_("memory") {}

  Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const override;
  uint64_t size() const override { return bytes_.size(); }
  const std::string& name() const override { return name_; }
  const uint8_t* View(uint64_t offset, size_t len) const override;

 private:
  std::vector<uint8_t> bytes_;
  std::string name_;
};

/// Read-only mmap of a whole file.
class MmapSource final : public RandomAccessSource {
 public:
  /// Opens and maps \p path (Status::Io on open/fstat/mmap failure).
  static StatusOr<std::shared_ptr<MmapSource>> Open(const std::string& path);

  ~MmapSource() override;
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const override;
  uint64_t size() const override { return size_; }
  const std::string& name() const override { return name_; }

  /// Zero-copy view of the whole mapping (valid while the source lives).
  const uint8_t* data() const { return data_; }

 private:
  MmapSource(const uint8_t* data, uint64_t size, std::string name)
      : data_(data), size_(size), name_(std::move(name)) {}

  const uint8_t* data_;
  uint64_t size_;
  std::string name_;
};

/// pread(2)-based source: bounded address-space footprint, a syscall per
/// chunk. The fd is owned and closed on destruction; pread carries its own
/// offset so concurrent ReadAt calls never race on file position.
class PreadSource final : public RandomAccessSource {
 public:
  /// Opens \p path read-only (Status::Io on open/fstat failure).
  static StatusOr<std::shared_ptr<PreadSource>> Open(const std::string& path);

  ~PreadSource() override;
  PreadSource(const PreadSource&) = delete;
  PreadSource& operator=(const PreadSource&) = delete;

  Status ReadAt(uint64_t offset, size_t len, uint8_t* out) const override;
  uint64_t size() const override { return size_; }
  const std::string& name() const override { return name_; }

 private:
  PreadSource(int fd, uint64_t size, std::string name)
      : fd_(fd), size_(size), name_(std::move(name)) {}

  int fd_;
  uint64_t size_;
  std::string name_;
};

}  // namespace alp::io

#endif  // ALP_IO_RANDOM_ACCESS_SOURCE_H_
