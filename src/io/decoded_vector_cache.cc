#include "io/decoded_vector_cache.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"

namespace alp::io {
namespace {

#if ALP_OBS
obs::Counter& HitCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter("io.cache.hit");
  return c;
}
obs::Counter& MissCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter("io.cache.miss");
  return c;
}
obs::Counter& EvictCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter("io.cache.evict");
  return c;
}
obs::Counter& InsertCounter() {
  static obs::Counter& c = obs::MetricRegistry::Global().GetCounter("io.cache.insert");
  return c;
}
#endif

}  // namespace

size_t DecodedVectorCache::KeyHash::operator()(const Key& key) const {
  // splitmix64-style mix of the two halves; shard selection reuses this
  // hash's high bits while the map uses the low ones.
  uint64_t x = key.column_id * 0x9E3779B97F4A7C15ull ^ key.rowgroup;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<size_t>(x);
}

DecodedVectorCache::DecodedVectorCache(size_t capacity_bytes, unsigned shards)
    : capacity_bytes_(capacity_bytes) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = capacity_bytes_ / shards;
}

DecodedVectorCache::Shard& DecodedVectorCache::ShardFor(const Key& key) {
  const uint64_t h = KeyHash{}(key);
  return *shards_[(h >> 32) % shards_.size()];
}

DecodedVectorCache::Value DecodedVectorCache::Lookup(uint64_t column_id,
                                                     uint64_t rowgroup) {
  const Key key{column_id, rowgroup};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    ALP_OBS_ONLY(MissCounter().Increment());
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  ALP_OBS_ONLY(HitCounter().Increment());
  return it->second->value;
}

void DecodedVectorCache::Insert(uint64_t column_id, uint64_t rowgroup,
                                Value value) {
  const Key key{column_id, rowgroup};
  Shard& shard = ShardFor(key);
  const size_t entry_bytes = value == nullptr ? 0 : value->bytes;
  std::lock_guard<std::mutex> lock(shard.mu);
  if (value == nullptr || entry_bytes == 0 || entry_bytes > shard_capacity_) {
    ++shard.stats.rejected;
    return;
  }
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Concurrent readers can load the same chunk and race to insert; first
    // write wins and later ones only refresh recency, so a handed-out
    // shared_ptr never silently diverges from the resident entry.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  while (shard.bytes + entry_bytes > shard_capacity_ && !shard.lru.empty()) {
    if (!fault::Check("io.cache_evict").ok()) {
      // Injected eviction failure: decline the insert, keep residents.
      ++shard.stats.rejected;
      return;
    }
    Slot& victim = shard.lru.back();
    shard.bytes -= victim.value->bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
    ALP_OBS_ONLY(EvictCounter().Increment());
  }
  shard.lru.push_front(Slot{key, std::move(value)});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += entry_bytes;
  ++shard.stats.inserts;
  ALP_OBS_ONLY(InsertCounter().Increment());
}

void DecodedVectorCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

DecodedVectorCache::Stats DecodedVectorCache::TotalStats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.inserts += shard->stats.inserts;
    total.evictions += shard->stats.evictions;
    total.rejected += shard->stats.rejected;
    total.bytes += shard->bytes;
    total.entries += shard->lru.size();
  }
  return total;
}

std::vector<DecodedVectorCache::Key> DecodedVectorCache::ShardKeysMruFirst(
    unsigned shard_index) const {
  std::vector<Key> keys;
  const Shard& shard = *shards_[shard_index % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  keys.reserve(shard.lru.size());
  for (const Slot& slot : shard.lru) keys.push_back(slot.key);
  return keys;
}

bool DecodedVectorCache::CheckInvariants() const {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->index.size() != shard->lru.size()) return false;
    size_t bytes = 0;
    for (const Slot& slot : shard->lru) {
      auto it = shard->index.find(slot.key);
      if (it == shard->index.end() || &*it->second != &slot) return false;
      bytes += slot.value->bytes;
    }
    if (bytes != shard->bytes) return false;
    if (capacity_bytes_ > 0 && bytes > shard_capacity_) return false;
    if (capacity_bytes_ == 0 && !shard->lru.empty()) return false;
  }
  return true;
}

}  // namespace alp::io
