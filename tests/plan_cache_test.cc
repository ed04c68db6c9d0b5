// Tests for the compiled-plan cache: unit-level LRU behavior plus the
// serving-layer property it exists for — plans are keyed by snapshot
// generation, so hot-swapping a collection invalidates its cached plans
// naturally and estimates immediately reflect the new synopsis.
#include "estimate/plan_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "estimate/compiled_twig.h"
#include "service/service.h"
#include "synopsis/graph.h"

// Global operator new/delete replacement (the whole unaligned family, so
// sanitizer runtimes never pair their allocator with this one) that counts
// this thread's allocations while armed, so a test can assert that a code
// path allocates nothing.
namespace {
thread_local bool g_count_allocations = false;
thread_local size_t g_allocations = 0;

void* CountedAlloc(size_t size) noexcept {
  if (g_count_allocations) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// GCC flags free() on memory from operator new once these inline, although
// the replacement pairs them deliberately.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace xcluster {
namespace {

std::shared_ptr<const CompiledTwig> EmptyPlan() {
  return std::make_shared<const CompiledTwig>();
}

TEST(PlanCacheTest, NormalizeQueryTrimsOuterWhitespace) {
  EXPECT_EQ(PlanCache::NormalizeQuery("  //a/b \t"), "//a/b");
  EXPECT_EQ(PlanCache::NormalizeQuery("//a/b"), "//a/b");
  EXPECT_EQ(PlanCache::NormalizeQuery(" \t "), "");
  // The normalized text is a view into the raw text, not a copy.
  const std::string raw = "  //a/b \t";
  const std::string_view trimmed = PlanCache::NormalizeQuery(raw);
  EXPECT_EQ(trimmed, "//a/b");
  EXPECT_EQ(trimmed.data(), raw.data() + 2);
  // Interior whitespace is the parser's business, not the cache key's.
  EXPECT_EQ(PlanCache::NormalizeQuery(" //a[range(1, 2)] "),
            "//a[range(1, 2)]");
}

TEST(PlanCacheTest, GetPutHitMissCounters) {
  PlanCache cache(PlanCache::Options{16});
  EXPECT_EQ(cache.Get(1, "//a"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  auto plan = EmptyPlan();
  cache.Put(1, "//a", plan);
  EXPECT_EQ(cache.Get(1, "//a"), plan);
  EXPECT_EQ(cache.hits(), 1u);

  // Different generation, same text: distinct key.
  EXPECT_EQ(cache.Get(2, "//a"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, KeyAndViewHashIdentically) {
  const std::string text = "//site/people/person[profile/@income]";
  EXPECT_EQ(PlanKeyHash()(PlanKey{9, text}),
            PlanKeyHash()(PlanKeyView{9, text}));
  EXPECT_TRUE(PlanKeyEqual()(PlanKey{9, text}, PlanKeyView{9, text}));
  EXPECT_FALSE(PlanKeyEqual()(PlanKey{8, text}, PlanKeyView{9, text}));
}

TEST(PlanCacheTest, WarmGetDoesNotAllocate) {
  PlanCache cache(PlanCache::Options{16});
  // Longer than any small-string buffer: an owning key would allocate.
  const std::string text =
      "//site/regions/africa/item[contains(description, \"gold\")]";
  auto plan = EmptyPlan();
  cache.Put(3, text, plan);
  ASSERT_EQ(cache.Get(3, text), plan);

  size_t hits = 0;
  g_allocations = 0;
  g_count_allocations = true;
  for (int i = 0; i < 100; ++i) {
    if (cache.Get(3, text) == plan) ++hits;
  }
  g_count_allocations = false;
  EXPECT_EQ(hits, 100u);
  EXPECT_EQ(g_allocations, 0u);

  // The counter does see the allocation an owning key would cost.
  g_count_allocations = true;
  const PlanKey owning{3, std::string(text)};
  g_count_allocations = false;
  EXPECT_GT(g_allocations, 0u);
  EXPECT_EQ(owning.text, text);
}

TEST(PlanCacheTest, FirstWriterWinsAndLruEvicts) {
  PlanCache cache(PlanCache::Options{2});
  auto first = EmptyPlan();
  cache.Put(1, "//a", first);
  cache.Put(1, "//a", EmptyPlan());  // racing duplicate loses
  EXPECT_EQ(cache.Get(1, "//a"), first);

  cache.Put(1, "//b", EmptyPlan());
  cache.Get(1, "//a");               // refresh: //b becomes LRU
  cache.Put(1, "//c", EmptyPlan());  // evicts //b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(1, "//b"), nullptr);
  EXPECT_NE(cache.Get(1, "//a"), nullptr);
}

TEST(PlanCacheTest, ZeroCapacityDisablesCaching) {
  PlanCache cache(PlanCache::Options{0});
  cache.Put(1, "//a", EmptyPlan());
  EXPECT_EQ(cache.Get(1, "//a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

/// A one-path synopsis R -> A with a configurable A count, so two installs
/// under the same name are distinguishable through the estimate.
XCluster MakeFixture(double a_count) {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, a_count);
  synopsis.AddEdge(r, a, a_count);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

TEST(PlanCacheServiceTest, RepeatedQueriesHitThePlanCache) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  for (int i = 0; i < 5; ++i) {
    QueryResult result = service.EstimateOne("col", "/A");
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.estimate, 10.0);
  }
  EXPECT_EQ(service.plan_cache().misses(), 1u);
  EXPECT_EQ(service.plan_cache().hits(), 4u);
  EXPECT_EQ(service.plan_cache().size(), 1u);

  // Whitespace variants normalize onto the same plan.
  QueryResult padded = service.EstimateOne("col", "  /A ");
  ASSERT_TRUE(padded.status.ok());
  EXPECT_EQ(service.plan_cache().hits(), 5u);
}

TEST(PlanCacheServiceTest, HotSwapInvalidatesCachedPlans) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  QueryResult before = service.EstimateOne("col", "/A");
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.estimate, 10.0);
  EXPECT_EQ(service.plan_cache().misses(), 1u);

  // Hot swap: same name, new synopsis, new generation. The cached plan
  // must not be reused (its key carries the old generation).
  service.store().Install("col", MakeFixture(25.0));
  QueryResult after = service.EstimateOne("col", "/A");
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.estimate, 25.0);
  EXPECT_EQ(service.plan_cache().misses(), 2u);

  // Both generations' plans coexist until the old one ages out.
  EXPECT_EQ(service.plan_cache().size(), 2u);
}

TEST(PlanCacheServiceTest, ParseErrorsAreNotCached) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  for (int i = 0; i < 3; ++i) {
    QueryResult result = service.EstimateOne("col", "][broken");
    EXPECT_EQ(result.status.code(), Status::Code::kInvalidArgument);
  }
  EXPECT_EQ(service.plan_cache().size(), 0u);
  EXPECT_EQ(service.plan_cache().hits(), 0u);
}

TEST(PlanCacheServiceTest, BatchSharesPlansAcrossWorkers) {
  ServiceOptions options;
  options.executor.num_threads = 4;
  EstimationService service(options);
  service.store().Install("col", MakeFixture(10.0));

  std::vector<std::string> queries(64, "/A");
  BatchResult batch = service.EstimateBatch("col", queries);
  EXPECT_EQ(batch.stats.ok, queries.size());
  for (const QueryResult& result : batch.results) {
    EXPECT_EQ(result.estimate, 10.0);
  }
  // Exactly one plan exists; racing compiles may each have missed, but
  // hits + misses account for every lookup and at most a handful missed.
  EXPECT_EQ(service.plan_cache().size(), 1u);
  EXPECT_EQ(service.plan_cache().hits() + service.plan_cache().misses(),
            queries.size());
  EXPECT_GE(service.plan_cache().hits(), queries.size() - 4);
}

}  // namespace
}  // namespace xcluster
