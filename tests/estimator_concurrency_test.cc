// Regression tests for concurrent use of one FlatEstimator. The
// descendant-reachability memo used to be an unsynchronized mutable map —
// racing Estimate() calls from two threads was undefined behavior. These
// tests drive descendant-heavy queries from many threads at once and are
// part of the TSan suite in CI.
#include "estimate/flat_estimator.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "estimate/flat_synopsis.h"
#include "query/parser.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A deep chain R -> A -> B -> C -> D -> E with side branches, so `//`
/// steps require multi-hop reachability DP (cache-miss heavy on first
/// touch, cache-hit heavy afterwards).
GraphSynopsis MakeDeepSynopsis() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId prev = r;
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
    "//E",       "//C//E",  "//A//D",     "//B//Eside", "/A//E",
    "//A//Cside", "//D",    "//A//B//C", "//Bside",    "//C//Dside",
};

TEST(EstimatorConcurrencyTest, ParallelDescendantQueriesMatchSerial) {
  GraphSynopsis synopsis = MakeDeepSynopsis();

  // Serial baseline on a fresh estimator (cold cache).
  std::vector<double> expected;
  {
    const FlatSynopsis baseline_flat(synopsis);
    const FlatEstimator baseline(baseline_flat);
    for (const std::string& query : kDescendantQueries) {
      expected.push_back(baseline.Estimate(MustParse(query)));
    }
  }

  // One shared estimator, many threads, repeated passes: the first pass
  // races cache fills, later passes race reads against late writers.
  const FlatSynopsis shared_flat(synopsis);
  const FlatEstimator shared(shared_flat);
  constexpr int kThreads = 8;
  constexpr int kPasses = 25;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different offset so writers collide.
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < kDescendantQueries.size(); ++i) {
          const size_t index = (i + static_cast<size_t>(t)) %
                               kDescendantQueries.size();
          const double estimate =
              shared.Estimate(MustParse(kDescendantQueries[index]));
          if (pass == 0) continue;  // warm-up
          got[t].push_back(estimate - expected[index]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (double delta : got[t]) {
      // Bit-identical to the cold-cache serial answer.
      EXPECT_EQ(delta, 0.0) << "thread " << t;
    }
  }
}

TEST(EstimatorConcurrencyTest, ExplainIsSafeAlongsideEstimate) {
  GraphSynopsis synopsis = MakeDeepSynopsis();
  const FlatSynopsis shared_flat(synopsis);
  const FlatEstimator shared(shared_flat);
  const TwigQuery probe = MustParse("//C//E");
  const double expected = shared.Estimate(probe);
  const std::string expected_explanation =
      shared.Explain(probe).ToString();

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(shared.Estimate(probe), expected);
        EXPECT_EQ(shared.Explain(probe).ToString(), expected_explanation);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace xcluster
