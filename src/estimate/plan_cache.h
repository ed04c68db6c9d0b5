#ifndef XCLUSTER_ESTIMATE_PLAN_CACHE_H_
#define XCLUSTER_ESTIMATE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/lru_cache.h"
#include "estimate/compiled_twig.h"

namespace xcluster {

/// Plan-cache key: (collection generation, normalized query text).
struct PlanKey {
  uint64_t generation = 0;
  std::string text;
};

/// A borrowed PlanKey: what Get probes with, so a hit allocates nothing.
struct PlanKeyView {
  uint64_t generation = 0;
  std::string_view text;
};

/// Hash and equality over PlanKey and PlanKeyView alike (heterogeneous
/// lookup): both read the text through a string_view, so a key and its
/// view hash identically.
struct PlanKeyHash {
  using is_transparent = void;
  template <class K>
  size_t operator()(const K& key) const {
    return static_cast<size_t>(Mix64(key.generation)) ^
           std::hash<std::string_view>()(std::string_view(key.text));
  }
};

struct PlanKeyEqual {
  using is_transparent = void;
  template <class A, class B>
  bool operator()(const A& a, const B& b) const {
    return a.generation == b.generation &&
           std::string_view(a.text) == std::string_view(b.text);
  }
};

/// A bounded LRU (ShardedLru) of CompiledTwig plans, keyed by
/// (collection generation, normalized query text), exported as the
/// `estimator.plan_cache.{hits,misses,evictions}` counters.
///
/// The generation in the key is what makes hot swap safe: installing a
/// new snapshot under an existing collection name bumps the generation,
/// so every plan compiled against the old synopsis misses naturally — no
/// explicit invalidation, no epoch scan. Stale generations age out of the
/// LRU as the new generation's plans displace them.
///
/// Plans are handed out as shared_ptr<const CompiledTwig>: an in-flight
/// estimate keeps its plan alive even if the entry is evicted mid-query.
///
/// Thread safety: all methods may be called from any thread.
class PlanCache
    : private ShardedLru<PlanKey, CompiledTwig, PlanKeyHash, PlanKeyEqual> {
 public:
  struct Options {
    /// Maximum cached plans. 0 disables caching.
    size_t capacity = 4096;
  };

  PlanCache() : PlanCache(Options()) {}
  explicit PlanCache(Options options)
      : ShardedLru(options.capacity, "estimator.plan_cache") {}

  /// Canonical cache-key form of a raw query line: leading/trailing ASCII
  /// whitespace stripped (the parser's own grammar defines everything
  /// interior). Both Get and the parse that follows a miss must use the
  /// normalized text so the cache never aliases two spellings to
  /// different plans. Returns a view into `raw`.
  static std::string_view NormalizeQuery(std::string_view raw);

  /// Cached plan for (generation, normalized), or nullptr on miss. Looks
  /// up by view: a hit allocates nothing.
  std::shared_ptr<const CompiledTwig> Get(uint64_t generation,
                                          std::string_view normalized) const {
    return ShardedLru::Get(PlanKeyView{generation, normalized});
  }

  /// Inserts `plan` (first writer wins), evicting the LRU entry of its
  /// shard when full.
  void Put(uint64_t generation, std::string_view normalized,
           std::shared_ptr<const CompiledTwig> plan) const {
    ShardedLru::Put(PlanKey{generation, std::string(normalized)},
                    std::move(plan));
  }

  using ShardedLru::capacity;
  using ShardedLru::evictions;
  using ShardedLru::hits;
  using ShardedLru::misses;
  using ShardedLru::size;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_PLAN_CACHE_H_
