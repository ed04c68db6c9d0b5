#ifndef XCLUSTER_ESTIMATE_REACH_CACHE_H_
#define XCLUSTER_ESTIMATE_REACH_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/lru_cache.h"

namespace xcluster {

/// Descendant-axis reach: (target flat node, expected count) pairs in
/// ascending target order, as produced by the bounded-hop reachability DP.
using ReachVector = std::vector<std::pair<uint32_t, double>>;

struct ReachKeyHash {
  size_t operator()(uint64_t key) const {
    return static_cast<size_t>(Mix64(key));
  }
};

/// The descendant reach memo of one FlatEstimator: a ShardedLru from a
/// packed (source node id, label symbol) key to the shared, immutable
/// reach vector. Capacity is a hard entry bound, so serving a very large
/// synopsis cannot grow the memo without limit. Exported as the
/// `estimator.reach_cache.{hits,misses,evictions}` counters.
///
/// Determinism: a reach vector is a pure function of its key (for a fixed
/// synopsis and options), so eviction and recomputation always restore the
/// identical value, and a racing Put keeps whichever writer landed first.
/// Readers iterate the vector Get returned, which outlives its eviction.
/// Estimates therefore stay bit-identical regardless of eviction timing or
/// thread interleaving.
class ReachCache : public ShardedLru<uint64_t, ReachVector, ReachKeyHash> {
 public:
  struct Options {
    /// Maximum cached entries. 0 disables caching entirely (every Get
    /// misses, Put stores nothing) — useful for cold-path benchmarking.
    size_t capacity = 1 << 16;
  };

  ReachCache() : ReachCache(Options()) {}
  explicit ReachCache(Options options)
      : ShardedLru(options.capacity, "estimator.reach_cache") {}

  /// Packs (source, label) into a cache key. The label slot carries
  /// kInvalidSymbol for wildcard steps; callers must not cache
  /// unknown-label probes under that same encoding (they short-circuit
  /// before reaching the cache).
  static uint64_t Key(uint32_t source, uint32_t label) {
    return (static_cast<uint64_t>(source) << 32) | label;
  }
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_REACH_CACHE_H_
