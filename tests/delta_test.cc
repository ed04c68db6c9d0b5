#include "build/delta.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "synopsis/reference.h"
#include "synopsis/size_model.h"

namespace xcluster {
namespace {

/// Scores one pair with a fresh scorer.
double MergeDelta(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v,
                  const DeltaOptions& options) {
  return DeltaScorer(options).MergeDelta(synopsis, u, v);
}

/// Root with two same-label children u, v that in turn share a child c.
struct Pair {
  GraphSynopsis synopsis;
  SynNodeId root, u, v, c;

  Pair(double cu, double cv, double uc, double vc) {
    root = synopsis.AddNode("R", ValueType::kNone, 1.0);
    u = synopsis.AddNode("A", ValueType::kNone, cu);
    v = synopsis.AddNode("A", ValueType::kNone, cv);
    c = synopsis.AddNode("C", ValueType::kNone, cu * uc + cv * vc);
    synopsis.AddEdge(root, u, cu);
    synopsis.AddEdge(root, v, cv);
    if (uc > 0) synopsis.AddEdge(u, c, uc);
    if (vc > 0) synopsis.AddEdge(v, c, vc);
  }
};

TEST(DeltaTest, IdenticalCentroidsHaveZeroDelta) {
  Pair p(4.0, 4.0, 3.0, 3.0);
  EXPECT_NEAR(MergeDelta(p.synopsis, p.u, p.v, DeltaOptions()), 0.0, 1e-12);
}

TEST(DeltaTest, StructuralDivergenceIsCharged) {
  Pair p(4.0, 4.0, 2.0, 6.0);
  // Merged count(w, c) = 4; per the formula each side contributes
  // |x| * (count(x,c) - 4)^2 = 4 * 4 = 16, total 32.
  EXPECT_NEAR(MergeDelta(p.synopsis, p.u, p.v, DeltaOptions()), 32.0, 1e-9);
}

TEST(DeltaTest, DeltaGrowsWithDivergence) {
  Pair small(4.0, 4.0, 3.0, 4.0);
  Pair large(4.0, 4.0, 1.0, 9.0);
  DeltaOptions options;
  EXPECT_LT(MergeDelta(small.synopsis, small.u, small.v, options),
            MergeDelta(large.synopsis, large.u, large.v, options));
}

TEST(DeltaTest, ExtentWeightsMatter) {
  // Same centroid divergence, bigger extents => bigger delta.
  Pair light(1.0, 1.0, 2.0, 6.0);
  Pair heavy(10.0, 10.0, 2.0, 6.0);
  DeltaOptions options;
  EXPECT_LT(MergeDelta(light.synopsis, light.u, light.v, options),
            MergeDelta(heavy.synopsis, heavy.u, heavy.v, options));
}

TEST(DeltaTest, ValueDivergenceIsCharged) {
  // Structurally identical nodes whose value summaries differ: the delta
  // must be positive through the value term.
  Pair p(4.0, 4.0, 3.0, 3.0);
  p.synopsis.node(p.u).type = ValueType::kNumeric;
  p.synopsis.node(p.v).type = ValueType::kNumeric;
  p.synopsis.node(p.u).vsumm = ValueSummary::FromNumeric({1, 1, 1, 1}, 8);
  p.synopsis.node(p.v).vsumm = ValueSummary::FromNumeric({9, 9, 9, 9}, 8);
  double delta = MergeDelta(p.synopsis, p.u, p.v, DeltaOptions());
  EXPECT_GT(delta, 0.0);

  // With use_value_summaries disabled the same pair costs nothing.
  DeltaOptions structural_only;
  structural_only.use_value_summaries = false;
  EXPECT_NEAR(MergeDelta(p.synopsis, p.u, p.v, structural_only), 0.0, 1e-12);
}

TEST(DeltaTest, IdenticalValueSummariesCostNothing) {
  Pair p(4.0, 4.0, 3.0, 3.0);
  p.synopsis.node(p.u).type = ValueType::kNumeric;
  p.synopsis.node(p.v).type = ValueType::kNumeric;
  p.synopsis.node(p.u).vsumm = ValueSummary::FromNumeric({1, 5, 9}, 8);
  p.synopsis.node(p.v).vsumm = ValueSummary::FromNumeric({1, 5, 9}, 8);
  EXPECT_NEAR(MergeDelta(p.synopsis, p.u, p.v, DeltaOptions()), 0.0, 1e-9);
}

TEST(DeltaTest, LeafValueNodesStillCharged) {
  // Leaf nodes (no children) with diverging values: the implicit self
  // target must charge the drift.
  GraphSynopsis synopsis;
  synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("Y", ValueType::kNumeric, 4.0);
  SynNodeId v = synopsis.AddNode("Y", ValueType::kNumeric, 4.0);
  synopsis.AddEdge(0, u, 4.0);
  synopsis.AddEdge(0, v, 4.0);
  synopsis.node(u).vsumm = ValueSummary::FromNumeric({0, 0, 0, 0}, 8);
  synopsis.node(v).vsumm = ValueSummary::FromNumeric({100, 100, 100, 100}, 8);
  EXPECT_GT(MergeDelta(synopsis, u, v, DeltaOptions()), 0.0);
}

TEST(DeltaTest, MergeSavingsSharedChildAndParent) {
  Pair p(4.0, 4.0, 3.0, 3.0);
  // Nodes: one saved (9B). Edges: root->u/root->v collapse (1 edge saved),
  // u->c/v->c collapse (1 edge saved) => 16B.
  EXPECT_EQ(MergeSavings(p.synopsis, p.u, p.v),
            SizeModel::kNodeBytes + 2 * SizeModel::kEdgeBytes);
}

TEST(DeltaTest, MergeSavingsDisjointChildren) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("A", ValueType::kNone, 1.0);
  SynNodeId v = synopsis.AddNode("A", ValueType::kNone, 1.0);
  SynNodeId x = synopsis.AddNode("X", ValueType::kNone, 1.0);
  SynNodeId y = synopsis.AddNode("Y", ValueType::kNone, 1.0);
  synopsis.AddEdge(root, u, 1.0);
  synopsis.AddEdge(root, v, 1.0);
  synopsis.AddEdge(u, x, 1.0);
  synopsis.AddEdge(v, y, 1.0);
  // Only the parent edges collapse; children are disjoint.
  EXPECT_EQ(MergeSavings(synopsis, u, v),
            SizeModel::kNodeBytes + 1 * SizeModel::kEdgeBytes);
}

TEST(DeltaTest, MergeSavingsAdjacentPair) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("P", ValueType::kNone, 2.0);
  SynNodeId v = synopsis.AddNode("P", ValueType::kNone, 2.0);
  synopsis.AddEdge(root, u, 2.0);
  synopsis.AddEdge(u, v, 1.0);
  // Before: 2 edges. After: root->w and w->w = 2 edges. Only the node is
  // saved.
  EXPECT_EQ(MergeSavings(synopsis, u, v), SizeModel::kNodeBytes);
}

TEST(DeltaTest, CompressionDeltaZeroForLosslessCompression) {
  GraphSynopsis synopsis;
  synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("Y", ValueType::kNumeric, 4.0);
  synopsis.AddEdge(0, u, 4.0);
  // Uniform adjacent values: merging buckets loses nothing at the
  // boundaries that remain.
  synopsis.node(u).vsumm = ValueSummary::FromNumeric({1, 2, 3, 4}, 8);
  ValueSummary compressed = synopsis.node(u).vsumm.Compressed(1);
  double delta = CompressionDelta(synopsis, u, compressed, DeltaOptions());
  EXPECT_GE(delta, 0.0);
  EXPECT_LT(delta, 1.0);
}

TEST(DeltaTest, CompressionDeltaGrowsWithCoarsening) {
  GraphSynopsis synopsis;
  synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("Y", ValueType::kNumeric, 8.0);
  synopsis.AddEdge(0, u, 8.0);
  synopsis.node(u).vsumm =
      ValueSummary::FromNumeric({1, 1, 1, 50, 90, 90, 95, 100}, 16);
  ValueSummary mild = synopsis.node(u).vsumm.Compressed(1);
  ValueSummary severe = synopsis.node(u).vsumm.Compressed(4);
  DeltaOptions options;
  EXPECT_LE(CompressionDelta(synopsis, u, mild, options),
            CompressionDelta(synopsis, u, severe, options) + 1e-12);
}

TEST(DeltaTest, AtomicPredicateCapBoundsWork) {
  GraphSynopsis synopsis;
  synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("Y", ValueType::kNumeric, 50.0);
  SynNodeId v = synopsis.AddNode("Y", ValueType::kNumeric, 50.0);
  synopsis.AddEdge(0, u, 50.0);
  synopsis.AddEdge(0, v, 50.0);
  std::vector<int64_t> wide;
  for (int64_t i = 0; i < 50; ++i) wide.push_back(i);
  synopsis.node(u).vsumm = ValueSummary::FromNumeric(wide, 64);
  synopsis.node(v).vsumm = ValueSummary::FromNumeric(wide, 64);
  DeltaOptions tight;
  tight.atomic_pred_cap = 4;
  // Identical summaries: still zero under any cap.
  EXPECT_NEAR(MergeDelta(synopsis, u, v, tight), 0.0, 1e-9);
}

/// Reference scorer: enumerates the pair's predicates afresh and evaluates
/// each on the materialized ValueSummary::Merge.
double MaterializingMergeDelta(const GraphSynopsis& synopsis, SynNodeId u,
                               SynNodeId v, const DeltaOptions& options) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  const double cu = nu.count;
  const double cv = nv.count;
  const double cw = cu + cv;
  if (cw <= 0.0) return 0.0;

  struct TargetCounts {
    double from_u = 0.0;
    double from_v = 0.0;
  };
  std::map<SynNodeId, TargetCounts> targets;
  for (const SynEdge& edge : nu.children) {
    SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
    targets[t].from_u += edge.avg_count;
  }
  for (const SynEdge& edge : nv.children) {
    SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
    targets[t].from_v += edge.avg_count;
  }
  targets[kNoSynNode] = {1.0, 1.0};

  std::vector<AtomicPredicate> preds(1);  // trivial: type kNone
  if (options.use_value_summaries && options.atomic_pred_cap != 0) {
    const size_t half = (options.atomic_pred_cap + 1) / 2;
    for (const AtomicPredicate& p : nu.vsumm.AtomicPredicates(half)) {
      preds.push_back(p);
    }
    for (const AtomicPredicate& p : nv.vsumm.AtomicPredicates(half)) {
      preds.push_back(p);
    }
    if (preds.size() > options.atomic_pred_cap + 1) {
      preds.resize(options.atomic_pred_cap + 1);
    }
  }
  const bool value_laden =
      options.use_value_summaries && (!nu.vsumm.empty() || !nv.vsumm.empty());
  ValueSummary merged;
  if (value_laden) merged = ValueSummary::Merge(nu.vsumm, cu, nv.vsumm, cv);
  auto sigma = [](const ValueSummary& summary, const AtomicPredicate& p) {
    return p.type == ValueType::kNone ? 1.0 : summary.AtomicSelectivity(p);
  };

  double delta = 0.0;
  for (const AtomicPredicate& p : preds) {
    const double su = sigma(nu.vsumm, p);
    const double sv = sigma(nv.vsumm, p);
    const double sw = sigma(merged, p);
    for (const auto& [target, counts] : targets) {
      const double aw = (cu * counts.from_u + cv * counts.from_v) / cw;
      const double du = su * counts.from_u - sw * aw;
      const double dv = sv * counts.from_v - sw * aw;
      delta += cu * du * du + cv * dv * dv;
    }
  }
  return delta;
}

TEST(DeltaTest, FoldedTargetSummedInTargetOrder) {
  // u -> v folds onto the merged node, whose target id (u) sorts before
  // the other children; fractional counts make the summation order show
  // in the last bits.
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId u = synopsis.AddNode("A", ValueType::kNone, 3.0);
  SynNodeId v = synopsis.AddNode("A", ValueType::kNone, 7.0);
  std::vector<SynNodeId> kids;
  for (int k = 0; k < 4; ++k) {
    kids.push_back(synopsis.AddNode("B", ValueType::kNone, 5.0));
  }
  synopsis.AddEdge(root, u, 3.0);
  synopsis.AddEdge(u, kids[2], 0.7);
  synopsis.AddEdge(u, v, 1.3);
  synopsis.AddEdge(u, kids[0], 0.1);
  synopsis.AddEdge(u, u, 0.45);
  synopsis.AddEdge(v, kids[1], 2.9);
  synopsis.AddEdge(v, kids[0], 0.35);
  synopsis.AddEdge(v, kids[3], 1.7);
  const double got = MergeDelta(synopsis, u, v, DeltaOptions());
  const double expected =
      MaterializingMergeDelta(synopsis, u, v, DeltaOptions());
  EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
      << got << " vs " << expected;
  EXPECT_EQ(DeltaScorer(DeltaOptions()).Score(synopsis, u, v).savings,
            MergeSavings(synopsis, u, v));
}

struct DifferentialCase {
  const char* name;
  int dataset;  ///< 0 XMark, 1 IMDB, 2 Treebank
  NumericSummaryKind numeric;
  DeltaOptions options;
};

DeltaOptions WithCap(size_t cap, bool values = true) {
  DeltaOptions options;
  options.atomic_pred_cap = cap;
  options.use_value_summaries = values;
  return options;
}

void PrintTo(const DifferentialCase& c, std::ostream* os) { *os << c.name; }

class MergeDeltaDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase> {};

/// One scorer lives through a sequence of merges on a reference synopsis
/// whose summaries were partly compressed (pruned PSTs, non-empty uniform
/// term buckets, coarser histograms); every score it gives must equal the
/// materializing oracle's bit for bit, and its savings the sort-based
/// MergeSavings, while its memoized sorted edges go stale merge by merge.
TEST_P(MergeDeltaDifferentialTest, MatchesMaterializingScorer) {
  const DifferentialCase& c = GetParam();
  GeneratedDataset dataset;
  if (c.dataset == 0) {
    XMarkOptions options;
    options.scale = 0.02;
    dataset = GenerateXMark(options);
  } else if (c.dataset == 1) {
    ImdbOptions options;
    options.scale = 0.02;
    dataset = GenerateImdb(options);
  } else {
    TreebankOptions options;
    options.scale = 0.02;
    dataset = GenerateTreebank(options);
  }
  ReferenceOptions ref_options;
  ref_options.numeric_summary = c.numeric;
  GraphSynopsis synopsis = BuildReferenceSynopsis(dataset.doc, ref_options);

  Rng rng(17);
  for (SynNodeId id : synopsis.AliveNodes()) {
    ValueSummary& vsumm = synopsis.node(id).vsumm;
    if (!vsumm.empty() && rng.Bernoulli(0.4)) {
      vsumm.Compress(1 + rng.Uniform(6));
    }
  }

  DeltaScorer scorer(c.options);
  size_t compared = 0;
  for (int round = 0; round < 12; ++round) {
    std::map<std::pair<SymbolId, ValueType>, std::vector<SynNodeId>> groups;
    for (SynNodeId id : synopsis.AliveNodes()) {
      const SynNode& node = synopsis.node(id);
      groups[{node.label, node.type}].push_back(id);
    }
    std::vector<const std::vector<SynNodeId>*> mergeable;
    for (const auto& [key, members] : groups) {
      if (members.size() >= 2) mergeable.push_back(&members);
    }
    if (mergeable.empty()) break;
    for (int k = 0; k < 80; ++k) {
      const std::vector<SynNodeId>& group =
          *mergeable[rng.Uniform(mergeable.size())];
      const SynNodeId u = group[rng.Uniform(group.size())];
      const SynNodeId v = group[rng.Uniform(group.size())];
      if (u == v) continue;
      const DeltaScorer::PairScore score = scorer.Score(synopsis, u, v);
      const double got = score.delta;
      const double expected = MaterializingMergeDelta(synopsis, u, v,
                                                      c.options);
      ASSERT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
          << "round " << round << ", pair (" << u << ", " << v
          << "): " << got << " vs " << expected;
      ASSERT_EQ(score.savings, MergeSavings(synopsis, u, v))
          << "round " << round << ", pair (" << u << ", " << v << ")";
      ++compared;
    }
    // Merge a random compatible pair; the scorer must stay valid.
    const std::vector<SynNodeId>& group =
        *mergeable[rng.Uniform(mergeable.size())];
    const SynNodeId u = group[0];
    const SynNodeId v = group[1 + rng.Uniform(group.size() - 1)];
    synopsis.MergeNodes(u, v);
    scorer.Forget(u);
    scorer.Forget(v);
  }
  EXPECT_GT(compared, 500u);
}

constexpr NumericSummaryKind kHistogram = NumericSummaryKind::kHistogram;

INSTANTIATE_TEST_SUITE_P(
    Synopses, MergeDeltaDifferentialTest,
    ::testing::Values(
        DifferentialCase{"xmark", 0, kHistogram, WithCap(16)},
        DifferentialCase{"xmark_odd_cap", 0, kHistogram, WithCap(5)},
        DifferentialCase{"xmark_cap1", 0, kHistogram, WithCap(1)},
        DifferentialCase{"xmark_structure_only", 0, kHistogram,
                         WithCap(16, false)},
        DifferentialCase{"imdb", 1, kHistogram, WithCap(16)},
        DifferentialCase{"imdb_wavelet", 1, NumericSummaryKind::kWavelet,
                         WithCap(16)},
        DifferentialCase{"imdb_sample", 1, NumericSummaryKind::kSample,
                         WithCap(7)},
        DifferentialCase{"treebank", 2, kHistogram, WithCap(16)}),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace xcluster
