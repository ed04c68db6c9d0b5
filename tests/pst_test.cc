#include "summaries/pst.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pst_oracle.h"

namespace xcluster {
namespace {

/// True number of strings containing `qs`.
double TrueCount(const std::vector<std::string>& strings,
                 std::string_view qs) {
  double count = 0.0;
  for (const std::string& s : strings) {
    if (s.find(qs) != std::string::npos) count += 1.0;
  }
  return count;
}

TEST(PstTest, EmptyTree) {
  Pst pst;
  EXPECT_EQ(pst.total(), 0.0);
  EXPECT_EQ(pst.node_count(), 0u);
  EXPECT_EQ(pst.SizeBytes(), 0u);
  EXPECT_EQ(pst.EstimateCount("x"), 0.0);
}

TEST(PstTest, NoStrings) {
  Pst pst = Pst::Build({}, 4);
  EXPECT_EQ(pst.total(), 0.0);
  EXPECT_EQ(pst.Selectivity("a"), 0.0);
}

TEST(PstTest, ExactCountsForStoredSubstrings) {
  std::vector<std::string> strings = {"abc", "abd", "bc"};
  Pst pst = Pst::Build(strings, 4);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("a"), 2.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("b"), 3.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("bc"), 2.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("abc"), 1.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("abd"), 1.0);
}

TEST(PstTest, PresenceCountsNotOccurrenceCounts) {
  // "aaa" contains "a" three times but counts once.
  Pst pst = Pst::Build({"aaa"}, 3);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("a"), 1.0);
  EXPECT_DOUBLE_EQ(pst.EstimateCount("aa"), 1.0);
}

TEST(PstTest, AbsentSymbolGivesZero) {
  Pst pst = Pst::Build({"abc"}, 3);
  EXPECT_EQ(pst.EstimateCount("xyz"), 0.0);
  EXPECT_EQ(pst.EstimateCount("ax"), 0.0);
}

TEST(PstTest, EmptyQueryMatchesEverything) {
  Pst pst = Pst::Build({"ab", "cd"}, 2);
  EXPECT_DOUBLE_EQ(pst.EstimateCount(""), 2.0);
  EXPECT_DOUBLE_EQ(pst.Selectivity(""), 1.0);
}

TEST(PstTest, MarkovEstimateForLongQueries) {
  // Depth-2 tree; the query "abc" requires a Markov extension step.
  std::vector<std::string> strings = {"abc", "abc", "abc", "abd"};
  Pst pst = Pst::Build(strings, 2);
  double estimate = pst.EstimateCount("abc");
  // P(ab) = 1, P(c | b) = C(bc)/C(b) = 3/4 -> estimate = 3.
  EXPECT_NEAR(estimate, 3.0, 1e-9);
}

TEST(PstTest, EstimateNeverExceedsTotal) {
  std::vector<std::string> strings = {"aaaa", "aaab", "aaba"};
  Pst pst = Pst::Build(strings, 2);
  EXPECT_LE(pst.EstimateCount("aaaa"), 3.0 + 1e-9);
}

TEST(PstTest, MonotonicityParentAtLeastChild) {
  std::vector<std::string> strings = {"hello", "help", "hold", "heap"};
  Pst pst = Pst::Build(strings, 4);
  EXPECT_GE(pst.EstimateCount("he"), pst.EstimateCount("hel"));
  EXPECT_GE(pst.EstimateCount("h"), pst.EstimateCount("he"));
}

TEST(PstTest, MergeSumsCounts) {
  Pst a = Pst::Build({"abc", "abd"}, 3);
  Pst b = Pst::Build({"abc", "xyz"}, 3);
  Pst merged = Pst::Merge(a, b);
  EXPECT_DOUBLE_EQ(merged.total(), 4.0);
  EXPECT_DOUBLE_EQ(merged.EstimateCount("abc"), 2.0);
  EXPECT_DOUBLE_EQ(merged.EstimateCount("ab"), 3.0);
  EXPECT_DOUBLE_EQ(merged.EstimateCount("xyz"), 1.0);
}

TEST(PstTest, MergeWithEmpty) {
  Pst a = Pst::Build({"ab"}, 2);
  Pst merged = Pst::Merge(a, Pst());
  EXPECT_DOUBLE_EQ(merged.EstimateCount("ab"), 1.0);
}

TEST(PstTest, PruneReducesNodesButKeepsSymbols) {
  std::vector<std::string> strings = {"abcdef", "abcxyz", "qrs"};
  Pst pst = Pst::Build(strings, 5);
  size_t before = pst.node_count();
  pst.Prune(before / 2);
  EXPECT_LT(pst.node_count(), before);
  // Depth-1 nodes survive: every symbol still yields a non-zero estimate.
  for (char c : std::string("abcdefxyzqrs")) {
    EXPECT_GT(pst.EstimateCount(std::string(1, c)), 0.0) << c;
  }
}

TEST(PstTest, PruneToMinimumLeavesDepthOne) {
  Pst pst = Pst::Build({"abc"}, 3);
  pst.Prune(1000);
  EXPECT_FALSE(pst.CanPrune());
  // Only depth-1 nodes remain: a, b, c.
  EXPECT_EQ(pst.node_count(), 3u);
}

TEST(PstTest, PrunedCopyLeavesOriginalIntact) {
  Pst pst = Pst::Build({"abcd", "abce"}, 4);
  size_t before = pst.node_count();
  Pst pruned = pst.Pruned(3);
  EXPECT_EQ(pst.node_count(), before);
  EXPECT_EQ(pruned.node_count(), before - 3);
}

TEST(PstTest, PrunePrefersRedundantLeaves) {
  // Strings where "ab" always extends to "abc": pruning "abc"'s leaf is
  // nearly free (the Markov estimate reconstructs it), while "xq" vs "xr"
  // leaves carry real information.
  std::vector<std::string> strings;
  for (int i = 0; i < 10; ++i) strings.push_back("abc");
  for (int i = 0; i < 5; ++i) strings.push_back("xq");
  for (int i = 0; i < 5; ++i) strings.push_back("xr");
  Pst pst = Pst::Build(strings, 3);
  Pst pruned = pst.Pruned(1);
  // After one pruning step, the estimate for "abc" should still be close.
  EXPECT_NEAR(pruned.EstimateCount("abc"), 10.0, 1.0);
}

TEST(PstTest, PruneByCountRemovesLowCountLeavesFirst) {
  std::vector<std::string> strings;
  for (int i = 0; i < 20; ++i) strings.push_back("abc");
  strings.push_back("xyz");  // low-count branch
  Pst pst = Pst::Build(strings, 3);
  Pst pruned = pst;
  pruned.PruneByCount(2);
  // The rare leaves ("xyz"-specific depth >= 2 nodes) go first; the
  // heavily supported "abc" path survives intact.
  EXPECT_DOUBLE_EQ(pruned.EstimateCount("abc"), 20.0);
  EXPECT_LT(pruned.node_count(), pst.node_count());
}

TEST(PstTest, PruneByCountKeepsDepthOneNodes) {
  Pst pst = Pst::Build({"abcd"}, 4);
  pst.PruneByCount(1000);
  EXPECT_EQ(pst.node_count(), 4u);  // a, b, c, d singles survive
}

TEST(PstTest, SampleSubstringsReturnsStoredStrings) {
  Pst pst = Pst::Build({"abc"}, 3);
  std::vector<std::string> sample = pst.SampleSubstrings(0);
  std::set<std::string> set(sample.begin(), sample.end());
  // All substrings of "abc" up to length 3.
  EXPECT_TRUE(set.count("a"));
  EXPECT_TRUE(set.count("ab"));
  EXPECT_TRUE(set.count("abc"));
  EXPECT_TRUE(set.count("bc"));
  EXPECT_TRUE(set.count("c"));
  EXPECT_EQ(set.size(), 6u);
}

TEST(PstTest, SampleSubstringsHonorsCap) {
  Pst pst = Pst::Build({"abcdefgh", "ijklmnop"}, 4);
  std::vector<std::string> sample = pst.SampleSubstrings(10);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(PstTest, SizeBytesTracksNodes) {
  Pst pst = Pst::Build({"ab"}, 2);
  // Nodes: a, ab, b -> 3 nodes.
  EXPECT_EQ(pst.node_count(), 3u);
  EXPECT_EQ(pst.SizeBytes(), 4u + 3u * 9u);
}

TEST(PstTest, MaxDepthLimitsSubstrings) {
  Pst pst = Pst::Build({"abcdef"}, 2);
  // Substrings of length <= 2 only: 6 singles + 5 bigrams.
  EXPECT_EQ(pst.node_count(), 11u);
  EXPECT_EQ(pst.max_depth(), 2u);
}

TEST(PstTest, DumpRoundTrip) {
  Pst pst = Pst::Build({"abc", "abd", "xy"}, 3);
  Pst rebuilt = Pst::FromDump(pst.Dump(), pst.total(), pst.max_depth());
  EXPECT_EQ(rebuilt.node_count(), pst.node_count());
  EXPECT_DOUBLE_EQ(rebuilt.EstimateCount("ab"), pst.EstimateCount("ab"));
  EXPECT_DOUBLE_EQ(rebuilt.EstimateCount("abc"), pst.EstimateCount("abc"));
  EXPECT_DOUBLE_EQ(rebuilt.EstimateCount("xy"), pst.EstimateCount("xy"));
}

/// Property sweep over random string collections: stored substrings are
/// counted exactly; estimates stay within [0, total]; pruning degrades
/// gracefully (never crashes, preserves monotonic bounds).
class PstPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstPropertyTest, ExactnessAndBounds) {
  Rng rng(GetParam());
  std::vector<std::string> strings;
  const char alphabet[] = "abcd";
  for (int i = 0; i < 60; ++i) {
    std::string s;
    size_t len = 1 + rng.Uniform(8);
    for (size_t j = 0; j < len; ++j) {
      s += alphabet[rng.Uniform(4)];
    }
    strings.push_back(std::move(s));
  }
  Pst pst = Pst::Build(strings, 4);

  // Every substring of every string up to depth 4 is counted exactly.
  std::set<std::string> checked;
  for (const std::string& s : strings) {
    for (size_t i = 0; i < s.size(); ++i) {
      for (size_t len = 1; len <= 4 && i + len <= s.size(); ++len) {
        std::string sub = s.substr(i, len);
        if (!checked.insert(sub).second) continue;
        EXPECT_DOUBLE_EQ(pst.EstimateCount(sub), TrueCount(strings, sub))
            << sub;
      }
    }
  }

  // Longer queries: estimates bounded by [0, total].
  for (int i = 0; i < 50; ++i) {
    std::string q;
    size_t len = 5 + rng.Uniform(4);
    for (size_t j = 0; j < len; ++j) q += alphabet[rng.Uniform(4)];
    double estimate = pst.EstimateCount(q);
    EXPECT_GE(estimate, 0.0);
    EXPECT_LE(estimate, pst.total() + 1e-9);
  }

  // Prune half the nodes; single symbols still estimated exactly (their
  // depth-1 nodes are protected).
  Pst pruned = pst.Pruned(pst.node_count() / 2);
  for (char c : std::string("abcd")) {
    std::string q(1, c);
    EXPECT_DOUBLE_EQ(pruned.EstimateCount(q), TrueCount(strings, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstPropertyTest,
                         ::testing::Values(7, 11, 19, 23, 31, 43));

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Reference sampler: collects every stored substring in preorder
/// (children pushed in order, popped last first), returns them as they are
/// when they fit, else sorts by (length, bytewise) and stride-samples.
/// Works from the public preorder Dump().
std::vector<std::string> SortingSampleOracle(const Pst& pst, size_t cap) {
  const std::vector<Pst::DumpNode> dump = pst.Dump();
  std::vector<std::vector<size_t>> children(dump.size() + 1);  // 0 = root
  for (size_t i = 0; i < dump.size(); ++i) {
    children[static_cast<size_t>(dump[i].parent + 1)].push_back(i + 1);
  }
  std::vector<std::string> all;
  std::vector<std::pair<size_t, std::string>> stack = {{0, ""}};
  while (!stack.empty()) {
    auto [node, prefix] = std::move(stack.back());
    stack.pop_back();
    if (node != 0) all.push_back(prefix);
    for (size_t child : children[node]) {
      stack.push_back({child, prefix + dump[child - 1].symbol});
    }
  }
  if (all.size() <= cap || cap == 0) return all;
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    if (x.size() != y.size()) return x.size() < y.size();
    return x < y;
  });
  std::vector<std::string> sampled;
  const double stride =
      static_cast<double>(all.size()) / static_cast<double>(cap);
  for (size_t k = 0; k < cap; ++k) {
    sampled.push_back(
        all[static_cast<size_t>(stride * static_cast<double>(k))]);
  }
  return sampled;
}

/// Random strings over an alphabet that straddles the signed-char
/// boundary, so bytewise order and char order disagree.
std::vector<std::string> RandomStrings(Rng* rng, size_t count) {
  const char alphabet[] = {'a', 'b', 'z', '\x7f', '\x80', '\xc3', '\xff'};
  std::vector<std::string> strings;
  for (size_t i = 0; i < count; ++i) {
    std::string s;
    const size_t len = 1 + rng->Uniform(9);
    for (size_t j = 0; j < len; ++j) {
      s += alphabet[rng->Uniform(sizeof(alphabet))];
    }
    strings.push_back(std::move(s));
  }
  return strings;
}

/// Random PSTs: built at varying depths, then pruned (both schemes) or
/// merged, so trees with removed leaves and reordered children appear.
std::vector<Pst> RandomPsts(uint64_t seed) {
  Rng rng(seed);
  std::vector<Pst> psts;
  for (int round = 0; round < 6; ++round) {
    Pst built = Pst::Build(RandomStrings(&rng, 1 + rng.Uniform(30)),
                           1 + rng.Uniform(5));
    psts.push_back(built);
    psts.push_back(built.Pruned(built.node_count() / 3));
    Pst by_count = built;
    by_count.PruneByCount(1 + rng.Uniform(20));
    psts.push_back(by_count);
    psts.push_back(Pst::Merge(by_count, psts[rng.Uniform(psts.size())]));
  }
  psts.push_back(Pst());
  psts.push_back(Pst::Build({}, 3));
  return psts;
}

class PstSampleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstSampleTest, SampleSubstringsMatchesSortingOracle) {
  for (const Pst& pst : RandomPsts(GetParam())) {
    const size_t n = pst.node_count();
    for (size_t cap : {size_t{0}, size_t{1}, size_t{16}, n == 0 ? 0 : n - 1,
                       n, n + 7}) {
      EXPECT_EQ(pst.SampleSubstrings(cap), SortingSampleOracle(pst, cap))
          << "cap " << cap << ", " << n << " nodes";
    }
  }
}

TEST_P(PstSampleTest, MergedSelectivityMatchesMaterializedMerge) {
  const std::vector<Pst> psts = RandomPsts(GetParam());
  const Pst empty;
  std::vector<std::pair<const Pst*, const Pst*>> pairs;
  for (const Pst& pst : psts) {
    pairs.push_back({&pst, &empty});
    pairs.push_back({&empty, &pst});
  }
  Rng rng(GetParam() * 31 + 1);
  for (int k = 0; k < 40; ++k) {
    pairs.push_back({&psts[rng.Uniform(psts.size())],
                     &psts[rng.Uniform(psts.size())]});
  }
  for (const auto& [pa, pb] : pairs) {
    const Pst& a = *pa;
    const Pst& b = *pb;
    const Pst merged = Pst::Merge(a, b);
    for (const Pst* side : {&a, &b}) {
      for (const std::string& s : side->SampleSubstrings(0)) {
        const double expected = merged.Selectivity(s);
        const double got = Pst::MergedSelectivity(a, b, s);
        EXPECT_TRUE(SameBits(got, expected))
            << "substring of " << s.size() << " bytes: " << got << " vs "
            << expected;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstSampleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

/// The tree's observable state as bytes: total, depth, and each Dump() node
/// (parent, symbol, count) packed without padding.
std::string DumpBytes(const Pst& pst) {
  std::string bytes;
  auto append = [&bytes](const auto& field) {
    bytes.append(reinterpret_cast<const char*>(&field), sizeof(field));
  };
  append(pst.total());
  append(pst.max_depth());
  for (const Pst::DumpNode& node : pst.Dump()) {
    append(node.parent);
    append(node.symbol);
    append(node.count);
  }
  return bytes;
}

/// Copies `pst` with `drop` random leaves of depth >= 2 removed from its
/// dump, ignoring pruning error: stored strings lose suffixes that their
/// extensions keep, which error-ordered pruning rarely produces.
Pst DropRandomLeaves(const Pst& pst, Rng* rng, size_t drop) {
  std::vector<Pst::DumpNode> dump = pst.Dump();
  for (size_t k = 0; k < drop; ++k) {
    std::vector<bool> is_parent(dump.size(), false);
    for (const Pst::DumpNode& node : dump) {
      if (node.parent >= 0) is_parent[static_cast<size_t>(node.parent)] = true;
    }
    std::vector<size_t> leaves;
    for (size_t i = 0; i < dump.size(); ++i) {
      if (!is_parent[i] && dump[i].parent >= 0) leaves.push_back(i);
    }
    if (leaves.empty()) break;
    const size_t gone = leaves[rng->Uniform(leaves.size())];
    dump.erase(dump.begin() + static_cast<std::ptrdiff_t>(gone));
    for (Pst::DumpNode& node : dump) {
      if (node.parent > static_cast<int32_t>(gone)) --node.parent;
    }
  }
  return Pst::FromDump(dump, pst.total(), pst.max_depth());
}

/// Trees for the pruning differential: built at depths 2-6, built then
/// pruned (both schemes), merged, FromDump copies (fresh arena ids),
/// trees with broken suffix closure, a FromDump tree deeper than its
/// max_depth (the Markov step's context window starts past 0), and a
/// zero-total tree.
std::vector<Pst> PruningInputs(uint64_t seed) {
  Rng rng(seed);
  std::vector<Pst> psts;
  for (size_t depth = 2; depth <= 6; ++depth) {
    const Pst built = Pst::Build(RandomStrings(&rng, 5 + rng.Uniform(40)),
                                 depth);
    psts.push_back(built);
    psts.push_back(built.Pruned(built.node_count() / 4));
    Pst by_count = built;
    by_count.PruneByCount(1 + rng.Uniform(20));
    psts.push_back(by_count);
    psts.push_back(DropRandomLeaves(built, &rng, built.node_count() / 3));
    psts.push_back(Pst::FromDump(built.Dump(), built.total(), depth));
    psts.push_back(Pst::Merge(psts[rng.Uniform(psts.size())], by_count));
    if (depth >= 4) {
      psts.push_back(Pst::FromDump(built.Dump(), built.total(), depth - 2));
    }
  }
  const Pst last = psts.back();
  psts.push_back(Pst::FromDump(last.Dump(), 0.0, last.max_depth()));
  psts.push_back(Pst());
  psts.push_back(Pst::Build({}, 3));
  return psts;
}

class PstPruneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PstPruneTest, CachedPruneMatchesOracle) {
  for (const Pst& input : PruningInputs(GetParam())) {
    const size_t n = input.node_count();
    for (size_t k : {size_t{1}, n == 0 ? 0 : n - 1, n + 5}) {
      Pst cached = input;
      Pst oracle = input;
      cached.Prune(k);
      PstOracle::Prune(&oracle, k);
      EXPECT_EQ(DumpBytes(cached), DumpBytes(oracle))
          << "k " << k << ", " << n << " nodes";
    }
  }
}

TEST_P(PstPruneTest, RepeatedPruneOnObjectAndCopiesMatchesOracle) {
  Rng rng(GetParam() * 7 + 3);
  for (const Pst& input : PruningInputs(GetParam())) {
    Pst cached = input;
    Pst oracle = input;
    for (int round = 0; round < 8 && cached.CanPrune(); ++round) {
      const size_t k = 1 + rng.Uniform(4);
      // A copy carries the cached errors; pruning it must leave the
      // original's cache intact.
      Pst cached_copy = cached;
      Pst oracle_copy = oracle;
      const size_t copy_k = 1 + rng.Uniform(6);
      cached_copy.Prune(copy_k);
      PstOracle::Prune(&oracle_copy, copy_k);
      EXPECT_EQ(DumpBytes(cached_copy), DumpBytes(oracle_copy))
          << "copy, round " << round;

      cached.Prune(k);
      PstOracle::Prune(&oracle, k);
      ASSERT_EQ(DumpBytes(cached), DumpBytes(oracle)) << "round " << round;
      if (round == 3) {
        // Removals by count go through the same invalidation.
        cached.PruneByCount(1);
        oracle.PruneByCount(1);
      }
    }
    // Errors cached in two trees do not leak into their merge.
    Pst merged = Pst::Merge(cached, input);
    Pst merged_oracle = Pst::Merge(oracle, input);
    const size_t half = merged.node_count() / 2;
    merged.Prune(half);
    PstOracle::Prune(&merged_oracle, half);
    EXPECT_EQ(DumpBytes(merged), DumpBytes(merged_oracle));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PstPruneTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace xcluster
