#ifndef ALP_IO_DECODED_VECTOR_CACHE_H_
#define ALP_IO_DECODED_VECTOR_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file decoded_vector_cache.h
/// Bounded, sharded LRU cache of verified rowgroup chunks, shared by every
/// SeekableReader attached to it (the serving catalog hands one cache to
/// all of its columns). The name is historical: the unit of caching is one
/// rowgroup chunk in its compressed form together with its parsed chunk
/// reader, not decoded vectors. ALP decodes at a few values per cycle, so
/// decoding a vector again from resident compressed bytes costs less than
/// the memory traffic of keeping it decoded (Lemire & Boytsov make the same
/// point, see PAPERS.md), and a byte of budget holds 64 / bits-per-value
/// times more values. A hit skips the fetch, the checksum and the
/// structural walk, then decodes or packed-evaluates in place.
///
/// Coherence rules (DESIGN.md "Out-of-core reads" spells out the why):
///  - Entries are immutable: a chunk is inserted at most once per
///    (column, rowgroup) generation and never mutated in place. Readers get
///    a shared_ptr, so an entry evicted mid-use stays alive for its
///    holders — eviction only drops the cache's reference.
///  - Only chunks that passed the checksum and the structural open are
///    inserted, so corruption cannot poison the cache (tests/test_seekable.cc
///    proves this by corrupting, observing the error, healing the bytes and
///    re-reading).
///  - Capacity 0 disables caching entirely (every Lookup is a miss, Insert
///    is a no-op); output must be byte-identical either way.
///
/// Sharding: keys hash to one of shard_count() independent LRU shards,
/// each with its own mutex, so concurrent readers mostly touch different
/// locks. The byte budget (compressed bytes) is split evenly across shards;
/// an entry larger than one shard's budget is simply not cached, which also
/// keeps one scan over large chunks from flushing every shard.
///
/// Fault injection: the eviction path consults the `io.cache_evict` site
/// (behind ALP_FAULTS). An injected fault makes Insert decline the entry —
/// the cache behaves as if full — and must never corrupt existing entries.

namespace alp::io {

class DecodedVectorCache {
 public:
  /// Identity of a cached chunk: (reader generation id, rowgroup index).
  /// Reader ids come from a process-global counter, so two readers over
  /// the same file never alias and a re-opened column starts cold; the
  /// entries of a reader that is gone are unreachable and age out.
  struct Key {
    uint64_t column_id = 0;
    uint64_t rowgroup = 0;
    bool operator==(const Key& o) const {
      return column_id == o.column_id && rowgroup == o.rowgroup;
    }
  };

  /// One cached chunk as the cache sees it: a byte charge. SeekableReader
  /// derives from it to carry the verified bytes and the parsed chunk
  /// reader; only the reader that inserted an entry (its column_id) ever
  /// looks it up, so it alone downcasts.
  struct Entry {
    explicit Entry(size_t charge) : bytes(charge) {}
    virtual ~Entry() = default;
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;
    size_t bytes;  ///< Compressed chunk size, charged against the budget.
  };

  using Value = std::shared_ptr<const Entry>;

  /// Always-on counters (plain atomics under the shard locks, so they are
  /// exact and available even when ALP_OBS is compiled out — the CLI's
  /// `alp stats` / `serve-bench` surfaces them).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;   ///< Entries dropped to make room.
    uint64_t rejected = 0;    ///< Inserts declined (capacity 0 / oversized
                              ///< entry / injected io.cache_evict fault).
    uint64_t bytes = 0;       ///< Resident compressed bytes right now.
    uint64_t entries = 0;     ///< Resident entries right now.
  };

  /// A cache holding at most \p capacity_bytes of chunk bytes across
  /// \p shards independent LRU shards (clamped to >= 1; tests use 1 shard
  /// to make global eviction order observable).
  explicit DecodedVectorCache(size_t capacity_bytes, unsigned shards = 8);

  DecodedVectorCache(const DecodedVectorCache&) = delete;
  DecodedVectorCache& operator=(const DecodedVectorCache&) = delete;

  /// Returns the cached chunk and marks it most-recently-used, or nullptr
  /// on a miss (also when capacity is 0).
  Value Lookup(uint64_t column_id, uint64_t rowgroup);

  /// Inserts \p value (no-op when capacity is 0, the value is null, empty
  /// or larger than one shard's budget, or an io.cache_evict fault fires
  /// while making room). Re-inserting a resident key refreshes its recency,
  /// keeps the first value, and counts as neither insert nor eviction.
  void Insert(uint64_t column_id, uint64_t rowgroup, Value value);

  /// Drops every entry (counters other than bytes/entries are preserved).
  void Clear();

  /// Aggregated counters across all shards.
  Stats TotalStats() const;

  size_t capacity_bytes() const { return capacity_bytes_; }
  unsigned shard_count() const { return static_cast<unsigned>(shards_.size()); }

  /// Keys of one shard in most-recently-used-first order — test hook for
  /// the eviction-order invariant (single-shard caches observe the global
  /// LRU order through this).
  std::vector<Key> ShardKeysMruFirst(unsigned shard) const;

  /// Test hook: verifies that every shard's byte/entry accounting matches
  /// its resident entries and respects the per-shard budget. Returns false
  /// (never aborts) on violation so torture tests can assert it.
  bool CheckInvariants() const;

 private:
  struct Slot {
    Key key;
    Value value;
  };

  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Slot> lru;  ///< Front = most recently used.
    std::unordered_map<Key, std::list<Slot>::iterator, KeyHash> index;
    size_t bytes = 0;
    Stats stats;
  };
  Shard& ShardFor(const Key& key);

  size_t capacity_bytes_;
  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace alp::io

#endif  // ALP_IO_DECODED_VECTOR_CACHE_H_
