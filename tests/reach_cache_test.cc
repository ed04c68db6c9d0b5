// Tests for the bounded descendant-reach LRU (ReachCache, a ShardedLru)
// and for the estimator that sits on top of it: capacity is a hard bound,
// eviction follows LRU order, racing writers keep the first value, a value
// handed out survives its eviction, and — the property everything else
// depends on — estimates stay bit-identical under concurrency even when
// the cache is small enough to thrash.
#include "estimate/reach_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "query/parser.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

std::shared_ptr<const ReachVector> Vec(
    std::initializer_list<std::pair<uint32_t, double>> v) {
  return std::make_shared<const ReachVector>(v);
}

TEST(ReachCacheTest, GetPutCountsHitsAndMisses) {
  ReachCache cache(ReachCache::Options{16});
  EXPECT_EQ(cache.Get(ReachCache::Key(1, 2)), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  const auto value = Vec({{7, 3.5}});
  EXPECT_EQ(cache.Put(ReachCache::Key(1, 2), value), value);
  const auto hit = cache.Get(ReachCache::Key(1, 2));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(hit, value);  // shared, not copied
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].first, 7u);
  EXPECT_EQ((*hit)[0].second, 3.5);
}

TEST(ReachCacheTest, CapacityIsAHardBoundWithLruEviction) {
  // Capacity below 1024 is a single shard, so the LRU order is exact.
  ReachCache cache(ReachCache::Options{3});
  cache.Put(ReachCache::Key(1, 0), Vec({{1, 1.0}}));
  cache.Put(ReachCache::Key(2, 0), Vec({{2, 1.0}}));
  cache.Put(ReachCache::Key(3, 0), Vec({{3, 1.0}}));
  EXPECT_EQ(cache.size(), 3u);

  // Touch key 1 so key 2 is now the least recently used.
  ASSERT_NE(cache.Get(ReachCache::Key(1, 0)), nullptr);

  cache.Put(ReachCache::Key(4, 0), Vec({{4, 1.0}}));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Get(ReachCache::Key(2, 0)), nullptr);  // evicted
  EXPECT_NE(cache.Get(ReachCache::Key(1, 0)), nullptr);  // survived
  EXPECT_NE(cache.Get(ReachCache::Key(4, 0)), nullptr);
}

TEST(ReachCacheTest, FirstWriterWins) {
  ReachCache cache(ReachCache::Options{8});
  const auto first = Vec({{1, 1.0}});
  cache.Put(ReachCache::Key(5, 5), first);
  // The losing writer gets the incumbent back.
  EXPECT_EQ(cache.Put(ReachCache::Key(5, 5), Vec({{2, 2.0}})), first);
  const auto hit = cache.Get(ReachCache::Key(5, 5));
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].first, 1u);
}

TEST(ReachCacheTest, ZeroCapacityDisablesCaching) {
  ReachCache cache(ReachCache::Options{0});
  const auto value = Vec({{1, 1.0}});
  EXPECT_EQ(cache.Put(ReachCache::Key(1, 1), value), value);
  EXPECT_EQ(cache.Get(ReachCache::Key(1, 1)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(ReachCacheTest, ValueOutlivesItsEviction) {
  // A reader iterates the vector Get returned without holding any lock;
  // evicting the entry underneath it must neither free nor change it.
  // (Under ASan a dangling read here is a hard failure.)
  ReachCache cache(ReachCache::Options{1});
  cache.Put(ReachCache::Key(1, 0), Vec({{7, 3.5}, {9, 0.25}}));
  const auto held = cache.Get(ReachCache::Key(1, 0));
  ASSERT_NE(held, nullptr);
  for (uint32_t i = 2; i < 64; ++i) {
    cache.Put(ReachCache::Key(i, 0), Vec({{i, 1.0}}));
  }
  EXPECT_EQ(cache.Get(ReachCache::Key(1, 0)), nullptr);  // evicted
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_EQ(held->size(), 2u);
  EXPECT_EQ((*held)[0].first, 7u);
  EXPECT_EQ((*held)[0].second, 3.5);
  EXPECT_EQ((*held)[1].first, 9u);
  EXPECT_EQ((*held)[1].second, 0.25);
}

TEST(ReachCacheTest, ShardCountFollowsCapacity) {
  // clamp(capacity / 512, 1, 8): small caches are one exact LRU, the
  // defaults stripe eight ways, and shard capacities sum to the bound.
  EXPECT_EQ(ReachCache(ReachCache::Options{0}).num_shards(), 1u);
  EXPECT_EQ(ReachCache(ReachCache::Options{1023}).num_shards(), 1u);
  EXPECT_EQ(ReachCache(ReachCache::Options{1024}).num_shards(), 2u);
  EXPECT_EQ(ReachCache(ReachCache::Options{4096}).num_shards(), 8u);
  EXPECT_EQ(ReachCache().num_shards(), 8u);
  ReachCache cache(ReachCache::Options{1537});  // 3 shards: 513+512+512
  for (uint32_t i = 0; i < 20000; ++i) {
    cache.Put(ReachCache::Key(i, 0), Vec({{i, 1.0}}));
  }
  EXPECT_EQ(cache.size(), 1537u);
}

TEST(ReachCacheTest, MixSeparatesXorCollidingKeys) {
  // The old ReachKeyHash reduced (source << 32) ^ label with std::hash,
  // so every (source, label) pair with the same source^label xor landed in
  // one bucket chain. The mixer must spread exactly those keys.
  std::set<uint64_t> mixed;
  const int kN = 512;
  for (uint32_t i = 0; i < kN; ++i) {
    // All of these have source ^ label == 0.
    mixed.insert(Mix64(ReachCache::Key(i, i)));
  }
  EXPECT_EQ(mixed.size(), static_cast<size_t>(kN));
  // And their low bits (what a power-of-two table actually uses) must not
  // all agree either: expect many distinct values mod 64.
  std::set<uint64_t> low;
  for (uint64_t m : mixed) low.insert(m % 64);
  EXPECT_GT(low.size(), 32u);
}

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Deep chain with side branches (same shape as the estimator concurrency
/// suite) so descendant queries populate many distinct cache keys.
GraphSynopsis MakeDeepSynopsis() {
  GraphSynopsis synopsis;
  SynNodeId prev = synopsis.AddNode("R", ValueType::kNone, 1.0);
  double count = 4.0;
  for (const char* label : {"A", "B", "C", "D", "E"}) {
    SynNodeId node = synopsis.AddNode(label, ValueType::kNone, count);
    synopsis.AddEdge(prev, node, count);
    SynNodeId side =
        synopsis.AddNode(std::string(label) + "side", ValueType::kNone, 2.0);
    synopsis.AddEdge(node, side, 2.0);
    prev = node;
    count *= 2.0;
  }
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return synopsis;
}

const std::vector<std::string> kDescendantQueries = {
    "//E",        "//C//E", "//A//D",    "//B//Eside", "/A//E",
    "//A//Cside", "//D",    "//A//B//C", "//Bside",    "//C//Dside",
};

TEST(ReachCacheTest, EstimatorCacheStaysBoundedAndCounts) {
  GraphSynopsis synopsis = MakeDeepSynopsis();
  EstimateOptions options;
  options.reach_cache_capacity = 4;
  const FlatSynopsis flat(synopsis);
  const FlatEstimator estimator(flat, options);
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& query : kDescendantQueries) {
      estimator.Estimate(MustParse(query));
    }
  }
  const ReachCache& cache = estimator.reach_cache();
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(ReachCacheTest, ConcurrentEstimatesDeterministicUnderEviction) {
  // A capacity small enough that the working set cannot fit forces
  // continuous evict/recompute churn; estimates must still be
  // bit-identical to the cold serial baseline from every thread.
  GraphSynopsis synopsis = MakeDeepSynopsis();

  std::vector<double> expected;
  {
    const FlatSynopsis baseline_flat(synopsis);
    const FlatEstimator baseline(baseline_flat);
    for (const std::string& query : kDescendantQueries) {
      expected.push_back(baseline.Estimate(MustParse(query)));
    }
  }

  EstimateOptions options;
  options.reach_cache_capacity = 3;
  const FlatSynopsis shared_flat(synopsis);
  const FlatEstimator shared(shared_flat, options);
  constexpr int kThreads = 8;
  constexpr int kPasses = 20;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < kDescendantQueries.size(); ++i) {
          const size_t index =
              (i + static_cast<size_t>(t)) % kDescendantQueries.size();
          const double estimate =
              shared.Estimate(MustParse(kDescendantQueries[index]));
          if (estimate != expected[index]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_LE(shared.reach_cache().size(), 3u);
  EXPECT_GT(shared.reach_cache().evictions(), 0u);
}

}  // namespace
}  // namespace xcluster
