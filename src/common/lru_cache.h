#ifndef XCLUSTER_COMMON_LRU_CACHE_H_
#define XCLUSTER_COMMON_LRU_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/telemetry/metrics.h"
#include "common/telemetry/telemetry.h"

namespace xcluster {

/// SplitMix64 finalizer. A multiply-xorshift cascade that spreads every
/// input bit across all 64 output bits, so packed keys whose halves are
/// small dense ids (e.g. `(source << 32) | label`) do not collide in the
/// low bits a hash table or shard index actually uses.
inline uint64_t Mix64(uint64_t key) {
  key += 0x9e3779b97f4a7c15ull;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
  return key ^ (key >> 31);
}

/// A sharded, bounded LRU map of immutable values.
///
/// Values are handed out as shared_ptr<const Value>: a reader keeps what
/// Get returned alive and unchanged even if the entry is evicted or the
/// cache is cleared while it is still in use, so callers iterate cached
/// values in place instead of copying them out.
///
/// Capacity is a hard bound on the number of entries, enforced by LRU
/// eviction within each shard; the shard capacities sum to exactly
/// `capacity`. Capacity 0 disables caching (every Get misses, Put stores
/// nothing). The shard count is derived from the capacity —
/// clamp(capacity / 512, 1, 8) — so a small cache is one exact LRU and a
/// large one stripes its locks eight ways.
///
/// Put is first-writer-wins: when the key is already present the
/// incumbent is kept and returned. Callers cache pure functions of the
/// key, so racing writers hold equal values and every reader sees one of
/// them.
///
/// Hits, misses and evictions are counted twice: as plain atomics (the
/// accessors below, observable with telemetry compiled out) and as the
/// process-global `<metric_prefix>.{hits,misses,evictions}` counters.
///
/// Get also takes any key type that `Hash` and `Equal` accept when both
/// declare `is_transparent` (heterogeneous lookup), so a caller can probe
/// with a borrowed view of a key without building an owning one. Such a
/// type must hash exactly as the Key it stands for.
///
/// Thread safety: all methods may be called from any thread; each shard's
/// mutex is held only for its own map/list operation.
template <class Key, class Value, class Hash = std::hash<Key>,
          class Equal = std::equal_to<Key>>
class ShardedLru {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  ShardedLru(size_t capacity, const std::string& metric_prefix)
      : capacity_(capacity) {
    const size_t shards = std::clamp<size_t>(capacity / 512, 1, 8);
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->capacity = capacity / shards + (i < capacity % shards ? 1 : 0);
      shards_.push_back(std::move(shard));
    }
#if XCLUSTER_TELEMETRY_ENABLED
    auto& registry = telemetry::MetricsRegistry::Global();
    hits_metric_ = registry.GetCounter(metric_prefix + ".hits");
    misses_metric_ = registry.GetCounter(metric_prefix + ".misses");
    evictions_metric_ = registry.GetCounter(metric_prefix + ".evictions");
#else
    (void)metric_prefix;
#endif
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// The cached value for `key` (refreshed to most recently used), or
  /// nullptr on a miss.
  template <class LookupKey = Key>
  ValuePtr Get(const LookupKey& key) const {
    if (capacity_ > 0) {
      Shard& shard = ShardFor(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.index.find(key);
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        Count(hits_, hits_metric_);
        return it->second->second;
      }
    }
    Count(misses_, misses_metric_);
    return nullptr;
  }

  /// Inserts `value` under `key` unless the key is present, evicting the
  /// shard's least recently used entry when it is full. Returns the value
  /// now cached under `key` — the incumbent when one was there — or
  /// `value` itself when caching is disabled.
  ValuePtr Put(const Key& key, ValuePtr value) const {
    if (capacity_ == 0) return value;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
    if (shard.lru.size() > shard.capacity) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      Count(evictions_, evictions_metric_);
    }
    return shard.lru.front().second;
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->lru.size();
    }
    return total;
  }
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  using Entry = std::pair<Key, ValuePtr>;
  struct Shard {
    std::mutex mu;
    size_t capacity = 0;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash, Equal>
        index;
  };

  template <class LookupKey>
  Shard& ShardFor(const LookupKey& key) const {
    return *shards_[Hash()(key) % shards_.size()];
  }

  static void Count(std::atomic<uint64_t>& plain,
                    [[maybe_unused]] telemetry::Counter* metric) {
    plain.fetch_add(1, std::memory_order_relaxed);
#if XCLUSTER_TELEMETRY_ENABLED
    metric->Increment();
#endif
  }

  size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  telemetry::Counter* hits_metric_ = nullptr;
  telemetry::Counter* misses_metric_ = nullptr;
  telemetry::Counter* evictions_metric_ = nullptr;
};

}  // namespace xcluster

#endif  // XCLUSTER_COMMON_LRU_CACHE_H_
