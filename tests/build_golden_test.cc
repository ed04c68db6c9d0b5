// Pins the exact bytes XClusterBuild emits. The merge sequence (and so the
// encoded synopsis) is a pure function of the reference and the options;
// any change to candidate scoring that is meant to be exact must leave
// every digest below unchanged. The digests were recorded with a scorer
// that evaluated every predicate on a materialized ValueSummary::Merge.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "build/builder.h"
#include "core/serialize.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "synopsis/reference.h"

namespace xcluster {
namespace {

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

enum class Dataset { kXMark, kImdb, kTreebank };

struct GoldenCase {
  const char* name;
  Dataset dataset;
  double scale;
  bool value_paths;  ///< summaries on the dataset's value paths only
  MergePolicy policy;
  NumericSummaryKind numeric;
  uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

GeneratedDataset Generate(Dataset dataset, double scale) {
  switch (dataset) {
    case Dataset::kXMark: {
      XMarkOptions options;
      options.scale = scale;
      return GenerateXMark(options);
    }
    case Dataset::kImdb: {
      ImdbOptions options;
      options.scale = scale;
      return GenerateImdb(options);
    }
    case Dataset::kTreebank: {
      TreebankOptions options;
      options.scale = scale;
      return GenerateTreebank(options);
    }
  }
  return {};
}

/// Builds to a quarter of the reference's structural bytes and half of its
/// value bytes, so both phases do real work, and digests the .xcs bytes.
uint64_t BuildDigest(const GoldenCase& c) {
  GeneratedDataset dataset = Generate(c.dataset, c.scale);
  ReferenceOptions ref_options;
  if (c.value_paths) ref_options.value_paths = dataset.value_paths;
  ref_options.numeric_summary = c.numeric;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);
  BuildOptions options;
  options.structural_budget = reference.StructuralBytes() / 4;
  options.value_budget = reference.ValueBytes() / 2;
  options.policy = c.policy;
  return Fnv1a64(EncodeSynopsisToString(XClusterBuild(reference, options,
                                                      nullptr)));
}

class BuildGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(BuildGoldenTest, EncodedSynopsisIsPinned) {
  const GoldenCase& c = GetParam();
  const uint64_t digest = BuildDigest(c);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, c.digest) << c.name << " now digests to " << hex;
}

constexpr MergePolicy kDelta = MergePolicy::kLocalizedDelta;
constexpr MergePolicy kCount = MergePolicy::kCountOnly;
constexpr NumericSummaryKind kHist = NumericSummaryKind::kHistogram;

INSTANTIATE_TEST_SUITE_P(
    Datasets, BuildGoldenTest,
    ::testing::Values(
        GoldenCase{"xmark_all_delta", Dataset::kXMark, 0.15, false, kDelta,
                   kHist, 0xfd364cf495b9c3bfull},
        GoldenCase{"xmark_paths_delta", Dataset::kXMark, 0.15, true, kDelta,
                   kHist, 0xc27fb273c961eb4aull},
        GoldenCase{"xmark_all_count", Dataset::kXMark, 0.15, false, kCount,
                   kHist, 0x540cd47cf9eece25ull},
        GoldenCase{"imdb_all_delta", Dataset::kImdb, 0.1, false, kDelta,
                   kHist, 0x5be97ae357a84321ull},
        GoldenCase{"imdb_paths_delta", Dataset::kImdb, 0.1, true, kDelta,
                   kHist, 0xf516c3e5780798ccull},
        GoldenCase{"imdb_all_count", Dataset::kImdb, 0.1, false, kCount,
                   kHist, 0xd1954ee96ad79993ull},
        GoldenCase{"imdb_all_delta_wavelet", Dataset::kImdb, 0.05, false,
                   kDelta, NumericSummaryKind::kWavelet, 0x0240d45a4965af76ull},
        GoldenCase{"imdb_all_delta_sample", Dataset::kImdb, 0.05, false,
                   kDelta, NumericSummaryKind::kSample, 0x6ca6744868e9b350ull},
        GoldenCase{"treebank_all_delta", Dataset::kTreebank, 0.1, false,
                   kDelta, kHist, 0xb9a6a9b351094186ull},
        GoldenCase{"treebank_paths_delta", Dataset::kTreebank, 0.1, true,
                   kDelta, kHist, 0x59d5fabaac6d31faull}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace xcluster
