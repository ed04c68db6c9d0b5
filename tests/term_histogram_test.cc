#include "summaries/term_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace xcluster {
namespace {

TEST(TermHistogramTest, EmptyBuild) {
  TermHistogram hist = TermHistogram::Build({});
  EXPECT_EQ(hist.indexed_count(), 0u);
  EXPECT_EQ(hist.SizeBytes(), 0u);
  EXPECT_EQ(hist.Frequency(0), 0.0);
}

TEST(TermHistogramTest, ExactCentroidFrequencies) {
  // Three texts: term 1 in all, term 2 in one, term 5 in two.
  std::vector<TermSet> texts = {{1, 2, 5}, {1, 5}, {1}};
  TermHistogram hist = TermHistogram::Build(texts);
  EXPECT_DOUBLE_EQ(hist.Frequency(1), 1.0);
  EXPECT_DOUBLE_EQ(hist.Frequency(2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(hist.Frequency(5), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(hist.Frequency(9), 0.0);
}

TEST(TermHistogramTest, SelectivityIsProductOfFrequencies) {
  std::vector<TermSet> texts = {{1, 2}, {1}, {1, 2}, {1}};
  TermHistogram hist = TermHistogram::Build(texts);
  EXPECT_DOUBLE_EQ(hist.Selectivity({1}), 1.0);
  EXPECT_DOUBLE_EQ(hist.Selectivity({2}), 0.5);
  EXPECT_DOUBLE_EQ(hist.Selectivity({1, 2}), 0.5);
  EXPECT_DOUBLE_EQ(hist.Selectivity({}), 1.0);
  EXPECT_DOUBLE_EQ(hist.Selectivity({7}), 0.0);
}

TEST(TermHistogramTest, AnySelectivityInclusionExclusion) {
  std::vector<TermSet> texts = {{1, 2}, {1}, {3}, {4}};
  TermHistogram hist = TermHistogram::Build(texts);
  // w[1] = 0.5, w[2] = 0.25: 1 - 0.5*0.75 = 0.625.
  EXPECT_NEAR(hist.AnySelectivity({1, 2}), 0.625, 1e-12);
  EXPECT_NEAR(hist.AnySelectivity({1}), 0.5, 1e-12);
  EXPECT_EQ(hist.AnySelectivity({}), 0.0);
  EXPECT_EQ(hist.AnySelectivity({9}), 0.0);
}

TEST(TermHistogramTest, SimilaritySelectivityPoissonBinomial) {
  // w[1] = 0.5, w[2] = 0.5, independent.
  TermHistogram hist = TermHistogram::Build({{1, 2}, {1}, {2}, {}});
  // P(at least 1 of {1,2}) = 1 - 0.25 = 0.75.
  EXPECT_NEAR(hist.SimilaritySelectivity({1, 2}, 1), 0.75, 1e-12);
  // P(both) = 0.25.
  EXPECT_NEAR(hist.SimilaritySelectivity({1, 2}, 2), 0.25, 1e-12);
  // Requiring more matches than terms is impossible.
  EXPECT_EQ(hist.SimilaritySelectivity({1, 2}, 3), 0.0);
  // Zero required matches is trivially satisfied.
  EXPECT_EQ(hist.SimilaritySelectivity({1, 2}, 0), 1.0);
}

TEST(TermHistogramTest, CompressMovesLowestFrequencies) {
  std::vector<TermSet> texts = {{1, 2, 3}, {1, 2}, {1}};
  TermHistogram hist = TermHistogram::Build(texts);
  hist.Compress(1);  // moves term 3 (freq 1/3) to the uniform bucket
  EXPECT_EQ(hist.indexed_count(), 2u);
  EXPECT_EQ(hist.uniform_count(), 1u);
  // Term 3 now estimated by the bucket average (its own former frequency).
  EXPECT_NEAR(hist.Frequency(3), 1.0 / 3.0, 1e-12);
  // Indexed terms still exact.
  EXPECT_DOUBLE_EQ(hist.Frequency(1), 1.0);
}

TEST(TermHistogramTest, UniformBucketPreservesZeroEntries) {
  std::vector<TermSet> texts = {{1}, {2}, {3}};
  TermHistogram hist = TermHistogram::Build(texts);
  hist.Compress(3);
  EXPECT_EQ(hist.indexed_count(), 0u);
  EXPECT_EQ(hist.uniform_count(), 3u);
  // Members share the average; non-members are exactly zero.
  EXPECT_NEAR(hist.Frequency(1), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(hist.Frequency(4), 0.0);
}

TEST(TermHistogramTest, CompressPreservesTotalMass) {
  std::vector<TermSet> texts = {{0, 1, 2, 3, 4}, {0, 1}, {0, 2, 4}};
  TermHistogram hist = TermHistogram::Build(texts);
  double mass_before = 0.0;
  for (TermId t = 0; t < 5; ++t) mass_before += hist.Frequency(t);
  hist.Compress(3);
  double mass_after = 0.0;
  for (TermId t = 0; t < 5; ++t) mass_after += hist.Frequency(t);
  EXPECT_NEAR(mass_before, mass_after, 1e-9);
}

TEST(TermHistogramTest, CompressBeyondCapacityStops) {
  std::vector<TermSet> texts = {{1, 2}};
  TermHistogram hist = TermHistogram::Build(texts);
  hist.Compress(10);
  EXPECT_EQ(hist.indexed_count(), 0u);
  EXPECT_FALSE(hist.CanCompress());
}

TEST(TermHistogramTest, CompressedCopyLeavesOriginal) {
  std::vector<TermSet> texts = {{1, 2, 3}};
  TermHistogram hist = TermHistogram::Build(texts);
  TermHistogram compressed = hist.Compressed(2);
  EXPECT_EQ(hist.indexed_count(), 3u);
  EXPECT_EQ(compressed.indexed_count(), 1u);
}

TEST(TermHistogramTest, MergeWeightedCombination) {
  // Cluster A: 2 texts, term 1 in both. Cluster B: 2 texts, term 1 in one.
  TermHistogram a = TermHistogram::Build({{1}, {1}});
  TermHistogram b = TermHistogram::Build({{1}, {2}});
  TermHistogram merged = TermHistogram::Merge(a, 2.0, b, 2.0);
  EXPECT_NEAR(merged.Frequency(1), 0.75, 1e-12);
  EXPECT_NEAR(merged.Frequency(2), 0.25, 1e-12);
}

TEST(TermHistogramTest, MergeUnequalWeights) {
  TermHistogram a = TermHistogram::Build({{1}});      // freq 1
  TermHistogram b = TermHistogram::Build({{2}, {3}});  // freqs 0.5
  TermHistogram merged = TermHistogram::Merge(a, 1.0, b, 3.0);
  EXPECT_NEAR(merged.Frequency(1), 0.25, 1e-12);
  EXPECT_NEAR(merged.Frequency(2), 0.375, 1e-12);
}

TEST(TermHistogramTest, MergeZeroWeightsYieldsEmpty) {
  TermHistogram a = TermHistogram::Build({{1}});
  TermHistogram merged = TermHistogram::Merge(a, 0.0, TermHistogram(), 0.0);
  EXPECT_EQ(merged.indexed_count(), 0u);
}

TEST(TermHistogramTest, MergeOfCompressedHistograms) {
  TermHistogram a = TermHistogram::Build({{1, 2}, {1}});
  a.Compress(1);
  TermHistogram b = TermHistogram::Build({{1}, {3}});
  TermHistogram merged = TermHistogram::Merge(a, 2.0, b, 2.0);
  // Term 1 indexed on both sides: weighted average of 1.0 and 0.5.
  EXPECT_NEAR(merged.Frequency(1), 0.75, 1e-12);
  // Term 2 only in a's uniform bucket; term 3 indexed in b.
  EXPECT_GT(merged.Frequency(2), 0.0);
  EXPECT_NEAR(merged.Frequency(3), 0.25, 1e-12);
}

TEST(TermHistogramTest, SampleTermsCoversIndexedFirst) {
  TermHistogram hist = TermHistogram::Build({{1, 2, 3, 4}});
  hist.Compress(2);
  std::vector<TermId> sample = hist.SampleTerms(0);
  EXPECT_EQ(sample.size(), 4u);
  std::vector<TermId> capped = hist.SampleTerms(2);
  EXPECT_EQ(capped.size(), 2u);
}

TEST(TermHistogramTest, UniformRunsCountsRle) {
  TermHistogram hist = TermHistogram::FromParts(
      {}, {0, 1, 2, 7, 8, 20}, 0.1);
  // Present runs: [0-2], [7-8], [20] = 3; zero runs between/before: [3-6],
  // [9-19] = 2 (no leading zero run since term 0 present).
  EXPECT_EQ(hist.UniformRuns(), 5u);
}

TEST(TermHistogramTest, UniformRunsWithLeadingGap) {
  TermHistogram hist = TermHistogram::FromParts({}, {5}, 0.2);
  // Leading zero run + one present run.
  EXPECT_EQ(hist.UniformRuns(), 2u);
}

TEST(TermHistogramTest, SizeBytesShrinksWithRuns) {
  // Contiguous members compress much better than scattered ones.
  std::vector<TermId> contiguous;
  std::vector<TermId> scattered;
  for (TermId t = 0; t < 50; ++t) {
    contiguous.push_back(t);
    scattered.push_back(t * 7);
  }
  TermHistogram dense = TermHistogram::FromParts({}, contiguous, 0.1);
  TermHistogram sparse = TermHistogram::FromParts({}, scattered, 0.1);
  EXPECT_LT(dense.SizeBytes(), sparse.SizeBytes());
}

TEST(TermHistogramTest, FromPartsRoundTrip) {
  TermHistogram hist = TermHistogram::FromParts(
      {{3, 0.5}, {1, 0.9}}, {7, 9}, 0.25);
  EXPECT_DOUBLE_EQ(hist.Frequency(1), 0.9);
  EXPECT_DOUBLE_EQ(hist.Frequency(3), 0.5);
  EXPECT_DOUBLE_EQ(hist.Frequency(7), 0.25);
  EXPECT_DOUBLE_EQ(hist.Frequency(8), 0.0);
}

/// Property sweep: compression always reduces size and preserves total
/// frequency mass; merge is a weighted average of frequencies.
class TermHistogramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TermHistogramPropertyTest, CompressAndMergeInvariants) {
  Rng rng(GetParam());
  auto random_texts = [&](size_t n, TermId vocab) {
    std::vector<TermSet> texts;
    for (size_t i = 0; i < n; ++i) {
      TermSet text;
      size_t len = 1 + rng.Uniform(10);
      for (size_t j = 0; j < len; ++j) {
        text.push_back(static_cast<TermId>(rng.Uniform(vocab)));
      }
      std::sort(text.begin(), text.end());
      text.erase(std::unique(text.begin(), text.end()), text.end());
      texts.push_back(std::move(text));
    }
    return texts;
  };

  std::vector<TermSet> texts_a = random_texts(40, 30);
  std::vector<TermSet> texts_b = random_texts(60, 30);
  TermHistogram a = TermHistogram::Build(texts_a);
  TermHistogram b = TermHistogram::Build(texts_b);

  TermHistogram merged = TermHistogram::Merge(a, 40.0, b, 60.0);
  for (TermId t = 0; t < 30; ++t) {
    double expected = 0.4 * a.Frequency(t) + 0.6 * b.Frequency(t);
    EXPECT_NEAR(merged.Frequency(t), expected, 1e-9) << t;
  }

  double mass_before = 0.0;
  for (TermId t = 0; t < 30; ++t) mass_before += merged.Frequency(t);
  size_t size_before = merged.SizeBytes();
  merged.Compress(merged.indexed_count() / 2);
  double mass_after = 0.0;
  for (TermId t = 0; t < 30; ++t) mass_after += merged.Frequency(t);
  EXPECT_NEAR(mass_before, mass_after, 1e-9);
  EXPECT_LE(merged.SizeBytes(), size_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TermHistogramPropertyTest,
                         ::testing::Values(3, 9, 27, 81, 243));

/// MergedFrequency must equal Merge(...).Frequency bit for bit: on fresh
/// and Compressed inputs (non-empty uniform buckets, terms indexed on one
/// side and bucketed on the other), zero weights, and terms in neither.
class MergedFrequencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergedFrequencyTest, MatchesMaterializedMerge) {
  Rng rng(GetParam());
  constexpr TermId kVocab = 40;
  std::vector<TermHistogram> hists = {TermHistogram()};
  for (int i = 0; i < 8; ++i) {
    std::vector<TermSet> texts;
    const size_t n = 1 + rng.Uniform(30);
    for (size_t k = 0; k < n; ++k) {
      TermSet text;
      for (size_t j = rng.Uniform(8); j > 0; --j) {
        text.push_back(static_cast<TermId>(rng.Uniform(kVocab)));
      }
      std::sort(text.begin(), text.end());
      text.erase(std::unique(text.begin(), text.end()), text.end());
      texts.push_back(std::move(text));
    }
    TermHistogram hist = TermHistogram::Build(texts);
    hists.push_back(hist);
    hist.Compress(1 + rng.Uniform(hist.indexed_count() + 1));
    hists.push_back(hist);
  }
  const double weights[] = {0.0, 1.0, 3.0, 17.0, 0.1};
  for (int pair = 0; pair < 60; ++pair) {
    const TermHistogram& a = hists[rng.Uniform(hists.size())];
    const TermHistogram& b = hists[rng.Uniform(hists.size())];
    const double wa = weights[rng.Uniform(5)];
    const double wb = weights[rng.Uniform(5)];
    const TermHistogram merged = TermHistogram::Merge(a, wa, b, wb);
    for (TermId t = 0; t < kVocab + 5; ++t) {  // the last 5 are in neither
      const double expected = merged.Frequency(t);
      const double got = TermHistogram::MergedFrequency(a, wa, b, wb, t);
      EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
          << "term " << t << ": " << got << " vs " << expected;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergedFrequencyTest,
                         ::testing::Values(2, 4, 6, 8, 10));

}  // namespace
}  // namespace xcluster
