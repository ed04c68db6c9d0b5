// Tests for the batch estimation engine: lane grouping (BatchPlan) and the
// structure-of-arrays DP (BatchEstimator), plus the service-level
// EstimateBatch path built on them. The load-bearing property throughout
// is *bit identity*: every lane-evaluated estimate must EXPECT_EQ the
// double the scalar FlatEstimator produces for the same query — across
// shuffled batches, duplicate queries, parse errors interleaved, explain
// batches, and any worker count.
#include "estimate/batch_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/xcluster.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "estimate/reach_cache.h"
#include "query/parser.h"
#include "service/service.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Fig. 7-style synopsis (numeric summary on C, fanout, two branches).
GraphSynopsis MakeFig7() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 100.0);
  SynNodeId c = synopsis.AddNode("C", ValueType::kNumeric, 500.0);
  SynNodeId d = synopsis.AddNode("D", ValueType::kNone, 50.0);
  SynNodeId e = synopsis.AddNode("E", ValueType::kNone, 100.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.AddEdge(b, c, 5.0);
  synopsis.AddEdge(a, d, 5.0);
  synopsis.AddEdge(d, e, 2.0);
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 10; ++v) values.push_back(v);
  synopsis.node(c).vsumm = ValueSummary::FromNumeric(std::move(values), 16);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return synopsis;
}

/// Cyclic synopsis (XMark parlist shape): descendant reach runs the
/// bounded-hop DP, which is what the batch tier shares.
GraphSynopsis MakeCyclic() {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId parlist = synopsis.AddNode("parlist", ValueType::kNone, 20.0);
  SynNodeId text = synopsis.AddNode("text", ValueType::kNone, 40.0);
  synopsis.AddEdge(root, parlist, 10.0);
  synopsis.AddEdge(parlist, parlist, 0.5);
  synopsis.AddEdge(parlist, text, 1.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return synopsis;
}

// ---------------------------------------------------------------------------
// Lane grouping (BatchPlan)
// ---------------------------------------------------------------------------

TEST(BatchPlanTest, SameSkeletonDifferentPredicatesShareAGroup) {
  GraphSynopsis synopsis = MakeFig7();
  FlatSynopsis flat(synopsis);
  // Identical structure, different range predicates: one group, two lanes.
  const CompiledTwig p1 =
      CompiledTwig::Compile(MustParse("/A/B/C[range(0,4)]"), flat);
  const CompiledTwig p2 =
      CompiledTwig::Compile(MustParse("/A/B/C[range(2,7)]"), flat);
  // Different structure: its own group.
  const CompiledTwig p3 = CompiledTwig::Compile(MustParse("//A//E"), flat);

  EXPECT_EQ(p1.group_key(), p2.group_key());
  EXPECT_TRUE(p1.SameStructure(p2));
  EXPECT_NE(p1.group_key(), p3.group_key());
  EXPECT_FALSE(p1.SameStructure(p3));

  BatchPlan plan = BatchPlan::Build({&p1, &p2, &p3});
  ASSERT_EQ(plan.num_groups(), 2u);
  EXPECT_EQ(plan.num_lanes(), 3u);
  EXPECT_EQ(plan.groups()[0].num_lanes(), 2u);
  EXPECT_EQ(plan.groups()[1].num_lanes(), 1u);
  EXPECT_EQ(plan.groups()[0].lane_slots[0], std::vector<uint32_t>{0});
  EXPECT_EQ(plan.groups()[0].lane_slots[1], std::vector<uint32_t>{1});
  EXPECT_EQ(plan.groups()[1].lane_slots[0], std::vector<uint32_t>{2});
}

TEST(BatchPlanTest, GroupKeysStableAcrossRecompiles) {
  // The same query compiled twice (as on a plan-cache hit or across
  // batches within a generation) must land in the same group.
  GraphSynopsis synopsis = MakeFig7();
  FlatSynopsis flat(synopsis);
  for (const char* query :
       {"/A/B/C[range(0,4)]", "//A//E", "/A/*", "//*", "/Z"}) {
    const CompiledTwig first = CompiledTwig::Compile(MustParse(query), flat);
    const CompiledTwig second = CompiledTwig::Compile(MustParse(query), flat);
    EXPECT_EQ(first.group_key(), second.group_key()) << query;
    EXPECT_TRUE(first.SameStructure(second)) << query;
  }
}

TEST(BatchPlanTest, DuplicatePlansCollapseOntoOneLaneAndNullsAreSkipped) {
  GraphSynopsis synopsis = MakeFig7();
  FlatSynopsis flat(synopsis);
  const CompiledTwig p1 = CompiledTwig::Compile(MustParse("/A/B"), flat);
  const CompiledTwig p2 = CompiledTwig::Compile(MustParse("//E"), flat);
  // Slots 0, 2, 4 repeat the same plan object (plan-cache hit semantics);
  // slot 3 has no plan (a parse failure).
  BatchPlan plan = BatchPlan::Build({&p1, &p2, &p1, nullptr, &p1});
  ASSERT_EQ(plan.num_groups(), 2u);
  EXPECT_EQ(plan.num_lanes(), 2u);
  const BatchPlan::Group& dup = plan.groups()[0];
  ASSERT_EQ(dup.num_lanes(), 1u);
  EXPECT_EQ(dup.lane_slots[0], (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(dup.num_slots(), 3u);
  EXPECT_EQ(plan.groups()[1].num_slots(), 1u);
}

// ---------------------------------------------------------------------------
// Lane DP bit identity (direct BatchEstimator)
// ---------------------------------------------------------------------------

/// Runs `queries` as one BatchPlan and asserts each lane's estimate is
/// bit-identical to the scalar FlatEstimator result.
void ExpectLanesMatchScalar(const GraphSynopsis& synopsis,
                            const std::vector<std::string>& queries) {
  FlatSynopsis flat(synopsis);
  FlatEstimator estimator(flat);
  std::vector<CompiledTwig> storage;
  storage.reserve(queries.size());
  std::vector<const CompiledTwig*> plans;
  for (const std::string& query : queries) {
    storage.push_back(CompiledTwig::Compile(MustParse(query), flat));
  }
  for (const CompiledTwig& plan : storage) plans.push_back(&plan);

  BatchPlan partition = BatchPlan::Build(plans);
  BatchReachTier tier(&estimator.reach_cache());
  std::vector<double> scalar(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    scalar[i] = estimator.Estimate(*plans[i]);
  }
  std::vector<double> lanes;
  for (const BatchPlan::Group& group : partition.groups()) {
    BatchEstimator::EstimateGroup(estimator, group, &tier, &lanes);
    ASSERT_EQ(lanes.size(), group.num_lanes());
    for (size_t lane = 0; lane < group.num_lanes(); ++lane) {
      for (const uint32_t slot : group.lane_slots[lane]) {
        EXPECT_EQ(lanes[lane], scalar[slot]) << queries[slot];
      }
    }
  }
}

TEST(BatchEstimatorTest, Fig7LanesBitIdenticalToScalar) {
  ExpectLanesMatchScalar(
      MakeFig7(),
      {"//A[/B/C[range(0,0)]]//E", "/A", "/A/B", "/A/B/C", "//C", "//E",
       "/A/*", "//*", "/A/B/C[range(0,4)]", "/A/B/C[range(2,7)]", "/A[/B]/D",
       "/Z", "//A/Q", "/A/B[range(0,100)]", "/A/B/C[contains(x)]"});
  // A batch of one query is a one-lane group (the scalar kernel).
  ExpectLanesMatchScalar(MakeFig7(), {"/A/B/C[range(0,4)]"});
}

TEST(BatchEstimatorTest, CyclicLanesBitIdenticalToScalar) {
  ExpectLanesMatchScalar(MakeCyclic(),
                         {"//text", "//parlist", "//parlist//text",
                          "/parlist/parlist", "//*", "//R//text"});
  ExpectLanesMatchScalar(MakeCyclic(), {"//parlist//text"});
}

TEST(BatchEstimatorTest, UnknownTermLanesEstimateExactlyZero) {
  // contains() with a term absent from the dictionary short-circuits to
  // 0.0 in the scalar path; lanes must reproduce that exactly even when
  // grouped with lanes that estimate nonzero.
  ExpectLanesMatchScalar(MakeFig7(),
                         {"/A/B/C[contains(nosuchterm)]", "/A/B/C[range(0,4)]",
                          "/A/B/C[contains(alsomissing)]"});
}

TEST(BatchEstimatorTest, EmptySynopsisLanesAreZero) {
  GraphSynopsis empty;
  FlatSynopsis flat(empty);
  FlatEstimator estimator(flat);
  const CompiledTwig plan = CompiledTwig::Compile(MustParse("/A"), flat);
  BatchPlan partition = BatchPlan::Build({&plan});
  BatchReachTier tier(&estimator.reach_cache());
  std::vector<double> lanes;
  ASSERT_EQ(partition.num_groups(), 1u);
  BatchEstimator::EstimateGroup(estimator, partition.groups()[0], &tier,
                                &lanes);
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0], 0.0);
  EXPECT_EQ(lanes[0], estimator.Estimate(plan));
}

TEST(BatchEstimatorTest, DescendantReachSharedWithinBatch) {
  // Two descendant plans with the same skeleton form one two-lane group;
  // the structure pass computes each (source, label) reach once and the
  // lane pass re-reads it from the batch tier — observable as shared hits.
  GraphSynopsis synopsis = MakeCyclic();
  FlatSynopsis flat(synopsis);
  FlatEstimator estimator(flat);
  const CompiledTwig t1 = CompiledTwig::Compile(MustParse("//text"), flat);
  const CompiledTwig t2 = CompiledTwig::Compile(MustParse("//text"), flat);
  const CompiledTwig p1 = CompiledTwig::Compile(MustParse("//parlist"), flat);
  const CompiledTwig p2 = CompiledTwig::Compile(MustParse("//parlist"), flat);
  BatchPlan partition = BatchPlan::Build({&t1, &p1, &t2, &p2});
  ASSERT_EQ(partition.num_groups(), 2u);  // different labels → different keys
  EXPECT_EQ(partition.num_lanes(), 4u);   // distinct plan objects
  BatchReachTier tier(&estimator.reach_cache());
  std::vector<double> lanes;
  for (const BatchPlan::Group& group : partition.groups()) {
    BatchEstimator::EstimateGroup(estimator, group, &tier, &lanes);
  }
  // Each group's lane pass re-reads the reach its structure pass published.
  EXPECT_GE(estimator.reach_cache().batch_shared_hits(), 2u);
  EXPECT_GE(tier.size(), 2u);
}

// ---------------------------------------------------------------------------
// Service-level randomized property test
// ---------------------------------------------------------------------------

/// Query pool mixing skeleton repeats, distinct predicates, wildcards,
/// descendant axes, misses, unknown terms, and malformed inputs.
const std::vector<std::string> kFig7Pool = {
    "//A[/B/C[range(0,0)]]//E",
    "/A",
    "/A/B",
    "/A/B/C",
    "//C",
    "//E",
    "/A/*",
    "//*",
    "/A/B/C[range(0,4)]",
    "/A/B/C[range(2,7)]",
    "/A/B/C[range(1,3)]",
    "/A[/B]/D",
    "/Z",
    "//A/Q",
    "/A/B[range(0,100)]",
    "/A/B/C[contains(x)]",
    "][broken",
    "not a query",
};

const std::vector<std::string> kCyclicPool = {
    "//text",          "//parlist", "//parlist//text", "/parlist/parlist",
    "//*",             "//R//text", "](malformed",
};

/// The reference for one collection: a FlatEstimator over the compiled
/// source graph, independent of the store's XCSF image.
struct Reference {
  explicit Reference(const GraphSynopsis& graph)
      : flat(graph), estimator(flat) {}
  FlatSynopsis flat;
  FlatEstimator estimator;
};

void RunShuffledBatchSuite(size_t workers) {
  ServiceOptions options;
  options.executor.num_threads = workers;
  auto service = std::make_unique<EstimationService>(options);
  const GraphSynopsis fig7 = MakeFig7();
  const GraphSynopsis cyclic = MakeCyclic();
  ASSERT_TRUE(service->store().Install("fig7", XCluster(fig7)).ok());
  ASSERT_TRUE(service->store().Install("cyclic", XCluster(cyclic)).ok());
  const Reference fig7_reference(fig7);
  const Reference cyclic_reference(cyclic);

  Rng rng(20260809 + workers);
  const struct {
    const char* collection;
    const std::vector<std::string>* pool;
    const Reference* reference;
  } collections[] = {{"fig7", &kFig7Pool, &fig7_reference},
                     {"cyclic", &kCyclicPool, &cyclic_reference}};

  for (int round = 0; round < 6; ++round) {
    for (const auto& target : collections) {
      // Shuffled batch with duplicates: sample with replacement, then
      // append a guaranteed repeat of slot 0 so dedup always triggers.
      const size_t n = 16 + rng.Uniform(48);
      std::vector<std::string> queries;
      queries.reserve(n + 1);
      for (size_t i = 0; i < n; ++i) {
        queries.push_back((*target.pool)[rng.Uniform(target.pool->size())]);
      }
      queries.push_back(queries[0]);

      for (const bool explain : {false, true}) {
        BatchOptions batch_options;
        batch_options.explain = explain;
        BatchResult batch = service->EstimateBatch(target.collection, queries,
                                                   batch_options);
        ASSERT_TRUE(batch.admission.ok());
        ASSERT_EQ(batch.results.size(), queries.size());
        EXPECT_GT(batch.stats.batch_groups, 0u);
        EXPECT_GE(batch.stats.vector_lanes, batch.stats.batch_groups);

        for (size_t i = 0; i < queries.size(); ++i) {
          // Slot-for-slot: same status code and bit-identical estimate as
          // the inline EstimateOne, and as a FlatEstimator over the
          // compiled source graph.
          const std::string where = std::string(target.collection) + " '" +
                                    queries[i] + "' explain=" +
                                    (explain ? "1" : "0");
          const QueryResult& slot = batch.results[i];
          QueryResult one =
              service->EstimateOne(target.collection, queries[i], explain);
          EXPECT_EQ(slot.status.code(), one.status.code()) << where;
          EXPECT_EQ(slot.estimate, one.estimate) << where;
          EXPECT_EQ(slot.explanation, one.explanation) << where;
          Result<TwigQuery> parsed = ParseTwig(queries[i]);
          EXPECT_EQ(slot.status.ok(), parsed.ok()) << where;
          if (!parsed.ok()) continue;
          const CompiledTwig plan =
              CompiledTwig::Compile(parsed.value(), target.reference->flat);
          EXPECT_EQ(slot.estimate, target.reference->estimator.Estimate(plan))
              << where;
          EXPECT_EQ(explain, !slot.explanation.empty()) << where;
        }
      }
    }
  }
}

TEST(BatchEstimatorServiceTest, ShuffledBatchesBitIdenticalWorkers1) {
  RunShuffledBatchSuite(1);
}

TEST(BatchEstimatorServiceTest, ShuffledBatchesBitIdenticalWorkers8) {
  RunShuffledBatchSuite(8);
}

TEST(BatchEstimatorServiceTest, ExplainBatchesRunAsLaneGroups) {
  ServiceOptions options;
  options.executor.num_threads = 2;
  auto service = std::make_unique<EstimationService>(options);
  ASSERT_TRUE(service->store().Install("fig7", XCluster(MakeFig7())).ok());
  BatchOptions explain;
  explain.explain = true;
  BatchResult batch = service->EstimateBatch(
      "fig7", {"/A/B/C[range(0,4)]", "//E", "/A/B/C[range(2,7)]"}, explain);
  ASSERT_TRUE(batch.admission.ok());
  EXPECT_EQ(batch.stats.batch_groups, 2u);
  EXPECT_EQ(batch.stats.vector_lanes, 3u);
  for (const QueryResult& result : batch.results) {
    ASSERT_TRUE(result.status.ok());
    EXPECT_FALSE(result.explanation.empty());
  }
}

}  // namespace
}  // namespace xcluster
