#include "build/compress.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "build/builder.h"
#include "core/serialize.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "pst_oracle.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

/// Root with three valued leaves: a numeric histogram, a string PST, and a
/// text term histogram.
GraphSynopsis MakeValuedSynopsis() {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);

  SynNodeId numeric = synopsis.AddNode("year", ValueType::kNumeric, 40.0);
  synopsis.AddEdge(root, numeric, 40.0);
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 40; ++v) values.push_back(v % 20);
  synopsis.node(numeric).vsumm = ValueSummary::FromNumeric(values, 64);

  SynNodeId str = synopsis.AddNode("title", ValueType::kString, 3.0);
  synopsis.AddEdge(root, str, 3.0);
  synopsis.node(str).vsumm =
      ValueSummary::FromStrings({"golden ring", "silver coin", "gold dust"}, 4);

  SynNodeId text = synopsis.AddNode("plot", ValueType::kText, 4.0);
  synopsis.AddEdge(root, text, 4.0);
  synopsis.node(text).vsumm =
      ValueSummary::FromTexts({{1, 2, 3}, {1, 4}, {2, 5}, {1, 2, 6}});
  return synopsis;
}

TEST(CompressTest, MeetsBudget) {
  GraphSynopsis synopsis = MakeValuedSynopsis();
  size_t before = synopsis.ValueBytes();
  size_t budget = before / 2;
  size_t after = CompressValueSummaries(&synopsis, budget, CompressOptions());
  EXPECT_LE(after, budget);
  EXPECT_EQ(after, synopsis.ValueBytes());
}

TEST(CompressTest, NoOpWhenUnderBudget) {
  GraphSynopsis synopsis = MakeValuedSynopsis();
  size_t before = synopsis.ValueBytes();
  size_t after =
      CompressValueSummaries(&synopsis, before + 1000, CompressOptions());
  EXPECT_EQ(after, before);
}

TEST(CompressTest, StopsAtIncompressibleFloor) {
  GraphSynopsis synopsis = MakeValuedSynopsis();
  // Budget 0 is unreachable: histograms keep one bucket, PSTs keep their
  // depth-1 symbols, term histograms keep the uniform bucket.
  size_t after = CompressValueSummaries(&synopsis, 0, CompressOptions());
  EXPECT_GT(after, 0u);
  // Every summary was compressed as far as possible.
  for (SynNodeId id : synopsis.AliveNodes()) {
    const ValueSummary& vsumm = synopsis.node(id).vsumm;
    if (vsumm.empty()) continue;
    ValueSummary copy = vsumm;
    size_t saved = copy.Compress(1);
    EXPECT_EQ(saved, 0u) << "node " << id;
  }
}

TEST(CompressTest, SummariesRemainUsable) {
  GraphSynopsis synopsis = MakeValuedSynopsis();
  CompressValueSummaries(&synopsis, synopsis.ValueBytes() / 3,
                         CompressOptions());
  for (SynNodeId id : synopsis.AliveNodes()) {
    const ValueSummary& vsumm = synopsis.node(id).vsumm;
    switch (vsumm.type()) {
      case ValueType::kNumeric:
        EXPECT_NEAR(vsumm.histogram().total(), 40.0, 1e-9);
        break;
      case ValueType::kString:
        EXPECT_GT(vsumm.pst().Selectivity("g"), 0.0);
        break;
      case ValueType::kText: {
        double mass = 0.0;
        for (TermId t = 0; t < 8; ++t) mass += vsumm.terms().Frequency(t);
        EXPECT_GT(mass, 0.0);
        break;
      }
      case ValueType::kNone:
        break;
    }
  }
}

TEST(CompressTest, PrefersCheapOperations) {
  // Two numeric nodes: one with redundant buckets (uniform), one with a
  // highly informative distribution. Compressing to remove exactly a few
  // buckets should prefer the redundant histogram.
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId uniform = synopsis.AddNode("u", ValueType::kNumeric, 16.0);
  SynNodeId skewed = synopsis.AddNode("s", ValueType::kNumeric, 16.0);
  synopsis.AddEdge(root, uniform, 16.0);
  synopsis.AddEdge(root, skewed, 16.0);
  std::vector<int64_t> uniform_values;
  for (int64_t v = 0; v < 16; ++v) uniform_values.push_back(v);
  std::vector<int64_t> skewed_values = {0, 0, 0, 0, 0, 0, 0, 0,
                                        1000, 2000, 4000, 8000,
                                        16000, 32000, 64000, 128000};
  synopsis.node(uniform).vsumm = ValueSummary::FromNumeric(uniform_values, 64);
  synopsis.node(skewed).vsumm = ValueSummary::FromNumeric(skewed_values, 64);

  size_t uniform_before = synopsis.node(uniform).vsumm.SizeBytes();
  size_t budget = synopsis.ValueBytes() - 24;  // force ~3 bucket merges
  CompressOptions options;
  options.step = 1;
  CompressValueSummaries(&synopsis, budget, options);
  // The uniform histogram absorbed the compression.
  EXPECT_LT(synopsis.node(uniform).vsumm.SizeBytes(), uniform_before);
  EXPECT_EQ(synopsis.node(skewed).vsumm.histogram().bucket_count(), 9u);
}

TEST(CompressTest, VOptimalHistogramOption) {
  GraphSynopsis synopsis = MakeValuedSynopsis();
  CompressOptions options;
  options.voptimal_histograms = true;
  size_t budget = synopsis.ValueBytes() / 2;
  size_t after = CompressValueSummaries(&synopsis, budget, options);
  EXPECT_LE(after, budget);
  // The numeric summary remains a valid histogram with its total intact.
  for (SynNodeId id : synopsis.AliveNodes()) {
    const ValueSummary& vsumm = synopsis.node(id).vsumm;
    if (vsumm.type() == ValueType::kNumeric) {
      EXPECT_NEAR(vsumm.histogram().total(), 40.0, 1e-9);
    }
  }
}

TEST(CompressTest, EmptySynopsisIsFine) {
  GraphSynopsis synopsis;
  EXPECT_EQ(CompressValueSummaries(&synopsis, 100, CompressOptions()), 0u);
}

TEST(CompressTest, LargerStepCompressesFaster) {
  GraphSynopsis a = MakeValuedSynopsis();
  GraphSynopsis b = MakeValuedSynopsis();
  CompressOptions coarse;
  coarse.step = 8;
  size_t budget = a.ValueBytes() / 2;
  size_t after_fine = CompressValueSummaries(&a, budget, CompressOptions());
  size_t after_coarse = CompressValueSummaries(&b, budget, coarse);
  EXPECT_LE(after_fine, budget);
  EXPECT_LE(after_coarse, budget);
}

/// The phase-2 loop as it was before its heap moved candidates out and
/// PSTs cached pruning errors: a std::priority_queue whose top is copied,
/// and STRING summaries pruned by PstOracle, recomputing every leaf's error
/// per application.
struct OracleCandidate {
  SynNodeId node = kNoSynNode;
  ValueSummary replacement;
  double delta = 0.0;
  size_t saved = 0;
  size_t size_at_eval = 0;

  double ratio() const {
    return delta / static_cast<double>(saved == 0 ? 1 : saved);
  }
};

struct OracleOrder {
  bool operator()(const OracleCandidate& a, const OracleCandidate& b) const {
    if (a.ratio() != b.ratio()) return a.ratio() > b.ratio();
    return a.node > b.node;
  }
};

bool MakeOracleCandidate(const GraphSynopsis& synopsis, SynNodeId node,
                         size_t step, const CompressOptions& options,
                         OracleCandidate* candidate) {
  const ValueSummary& vsumm = synopsis.node(node).vsumm;
  if (vsumm.empty() || !vsumm.CanCompress()) return false;
  ValueSummary replacement = vsumm;
  size_t saved = 0;
  if (options.voptimal_histograms && vsumm.type() == ValueType::kNumeric &&
      vsumm.numeric_kind() == NumericSummaryKind::kHistogram &&
      vsumm.histogram().bucket_count() > 1) {
    const size_t buckets = vsumm.histogram().bucket_count();
    const size_t target = buckets > step ? buckets - step : 1;
    *replacement.mutable_histogram() = vsumm.histogram().VOptimal(target);
    saved = vsumm.SizeBytes() - replacement.SizeBytes();
  } else if (vsumm.type() == ValueType::kString) {
    PstOracle::Prune(replacement.mutable_pst(), step);
    const size_t after = replacement.SizeBytes();
    saved = vsumm.SizeBytes() > after ? vsumm.SizeBytes() - after : 0;
  } else {
    saved = replacement.Compress(step);
  }
  if (saved == 0) return false;
  candidate->node = node;
  candidate->delta =
      CompressionDelta(synopsis, node, replacement, options.delta);
  candidate->replacement = std::move(replacement);
  candidate->saved = saved;
  candidate->size_at_eval = vsumm.SizeBytes();
  return true;
}

size_t OracleCompress(GraphSynopsis* synopsis, size_t value_budget,
                      const CompressOptions& options) {
  size_t bytes = synopsis->ValueBytes();
  if (bytes <= value_budget) return bytes;
  size_t step = options.step;
  if (step == 0) step = std::max<size_t>(1, (bytes - value_budget) / (256 * 8));
  std::priority_queue<OracleCandidate, std::vector<OracleCandidate>,
                      OracleOrder>
      heap;
  for (SynNodeId id : synopsis->AliveNodes()) {
    OracleCandidate candidate;
    if (MakeOracleCandidate(*synopsis, id, step, options, &candidate)) {
      heap.push(std::move(candidate));
    }
  }
  while (bytes > value_budget && !heap.empty()) {
    OracleCandidate best = heap.top();
    heap.pop();
    SynNode& node = synopsis->node(best.node);
    OracleCandidate next;
    if (node.vsumm.SizeBytes() != best.size_at_eval) {
      if (MakeOracleCandidate(*synopsis, best.node, step, options, &next)) {
        heap.push(std::move(next));
      }
      continue;
    }
    node.vsumm = std::move(best.replacement);
    bytes -= best.saved;
    if (MakeOracleCandidate(*synopsis, best.node, step, options, &next)) {
      heap.push(std::move(next));
    }
  }
  return synopsis->ValueBytes();
}

/// Reference synopses of the three generators, plus each after phase 1 to
/// a quarter of its structural bytes (merged PSTs, histograms and term
/// histograms).
std::vector<GraphSynopsis> DifferentialInputs() {
  std::vector<GeneratedDataset> datasets;
  XMarkOptions xmark;
  xmark.scale = 0.02;
  datasets.push_back(GenerateXMark(xmark));
  ImdbOptions imdb;
  imdb.scale = 0.02;
  datasets.push_back(GenerateImdb(imdb));
  TreebankOptions treebank;
  treebank.scale = 0.02;
  datasets.push_back(GenerateTreebank(treebank));
  std::vector<GraphSynopsis> inputs;
  for (const GeneratedDataset& dataset : datasets) {
    GraphSynopsis reference =
        BuildReferenceSynopsis(dataset.doc, ReferenceOptions());
    BuildOptions phase1;
    phase1.structural_budget = reference.StructuralBytes() / 4;
    phase1.value_budget = std::numeric_limits<size_t>::max();
    inputs.push_back(XClusterBuild(reference, phase1, nullptr));
    inputs.push_back(std::move(reference));
  }
  return inputs;
}

TEST(CompressDifferentialTest, MatchesUncachedPriorityQueueOracle) {
  const std::vector<GraphSynopsis> inputs = DifferentialInputs();
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (size_t step : {size_t{0}, size_t{5}}) {
      for (bool voptimal : {false, true}) {
        for (size_t divisor : {size_t{2}, size_t{5}}) {
          CompressOptions options;
          options.step = step;
          options.voptimal_histograms = voptimal;
          const size_t budget = inputs[i].ValueBytes() / divisor;
          GraphSynopsis got = inputs[i];
          GraphSynopsis expected = inputs[i];
          EXPECT_EQ(CompressValueSummaries(&got, budget, options),
                    OracleCompress(&expected, budget, options));
          EXPECT_EQ(EncodeSynopsisToString(got),
                    EncodeSynopsisToString(expected))
              << "input " << i << ", step " << step << ", voptimal "
              << voptimal << ", budget 1/" << divisor;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xcluster
