// Property tests for the binary synopsis format: byte-identical re-encoding
// for every value-summary kind, detection of single-bit flips anywhere in
// the file, and rejection of the retired text format.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/io/file_io.h"
#include "core/serialize.h"
#include "core/xcluster.h"
#include "service/synopsis_store.h"
#include "synopsis/graph.h"

namespace xcluster {
namespace {

/// One synopsis per ValueType (and per numeric summary kind), each with a
/// node carrying that summary.
std::vector<std::pair<std::string, GraphSynopsis>> AllKindSynopses() {
  std::vector<std::pair<std::string, GraphSynopsis>> out;

  auto base = [](ValueType leaf_type) {
    GraphSynopsis synopsis;
    SynNodeId root = synopsis.AddNode("root", ValueType::kNone, 1.0);
    SynNodeId leaf = synopsis.AddNode("leaf", leaf_type, 17.0);
    synopsis.AddEdge(root, leaf, 17.0);
    synopsis.set_root(root);
    return synopsis;
  };

  {
    GraphSynopsis s = base(ValueType::kNone);
    out.emplace_back("none", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kNumeric);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kNumeric);
    *v.mutable_histogram() = Histogram::FromBuckets(
        {{0, 9, 5.0}, {10, 19, 2.5}, {20, 99, 9.5}});
    out.emplace_back("histogram", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kNumeric);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kNumeric);
    v.set_numeric_kind(NumericSummaryKind::kWavelet);
    *v.mutable_wavelet() = WaveletSummary::FromCoefficients(
        {{0, 2.0}, {1, -0.5}, {5, 0.125}}, -8, 2, 16, 17.0);
    out.emplace_back("wavelet", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kNumeric);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kNumeric);
    v.set_numeric_kind(NumericSummaryKind::kSample);
    *v.mutable_sample() =
        SampleSummary::FromParts({1, 1, 2, 3, 5, 8, 13}, 17.0);
    out.emplace_back("sample", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kString);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kString);
    std::vector<Pst::DumpNode> dump = {
        {-1, 't', 9.0}, {0, 'h', 6.0}, {1, 'e', 4.0}};
    *v.mutable_pst() = Pst::FromDump(dump, 17.0, 4);
    out.emplace_back("pst", std::move(s));
  }
  {
    GraphSynopsis s = base(ValueType::kText);
    ValueSummary& v = s.node(1).vsumm;
    v.set_type(ValueType::kText);
    *v.mutable_terms() =
        TermHistogram::FromParts({{0, 0.9}, {2, 0.4}}, {1, 3}, 0.05);
    out.emplace_back("terms", std::move(s));
  }
  return out;
}

TEST(SerializeCorruptionTest, EncodeDecodeEncodeIsByteIdentical) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    const std::string first = EncodeSynopsisToString(synopsis);
    ASSERT_FALSE(first.empty()) << name;
    Result<GraphSynopsis> decoded = DecodeSynopsisBytes(first);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    const std::string second = EncodeSynopsisToString(decoded.value());
    EXPECT_EQ(first, second) << name;
  }
}

TEST(SerializeCorruptionTest, EverySingleBitFlipIsDetected) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    std::string bytes = EncodeSynopsisToString(synopsis);
    ASSERT_TRUE(DecodeSynopsisBytes(bytes).ok()) << name;
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      bytes[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
      Result<GraphSynopsis> corrupted = DecodeSynopsisBytes(bytes);
      ASSERT_FALSE(corrupted.ok()) << name << " bit " << bit;
      // Flips in the 4-byte version field surface as kUnsupported; every
      // other flip is a checksum / structure failure, i.e. kCorruption.
      if (bit >= 64) {
        EXPECT_EQ(corrupted.status().code(), Status::Code::kCorruption)
            << name << " bit " << bit << ": "
            << corrupted.status().ToString();
      }
      bytes[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
    }
    ASSERT_TRUE(DecodeSynopsisBytes(bytes).ok()) << name << " (restored)";
  }
}

TEST(SerializeCorruptionTest, VerifyReportsSectionsForCleanFile) {
  for (auto& [name, synopsis] : AllKindSynopses()) {
    std::string report;
    Status status =
        VerifySynopsisBytes(EncodeSynopsisToString(synopsis), &report);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
    EXPECT_NE(report.find("checksum ok"), std::string::npos) << report;
    EXPECT_NE(report.find("decode ok"), std::string::npos) << report;
  }
}

// The retired version-1 text format has no reader any more: its bytes must
// fail like any other bad magic — a clean kCorruption, no crash — at every
// entry point that accepts a synopsis, and a failed store load must leave
// the snapshot already installed under that name in place.
TEST(SerializeCorruptionTest, RetiredTextFormatIsRejected) {
  const std::string v1 =
      "XCLUSTER 1\n"
      "labels 2\n"
      "4 root\n"
      "4 leaf\n"
      "terms 1\n"
      "5 hello\n"
      "root 0\n"
      "nodes 2\n"
      "node 0 0 1\n"
      "vsumm none\n"
      "node 1 1 17\n"
      "vsumm hist 2 0 9 12 10 19 5\n"
      "edges 1\n"
      "edge 0 1 17\n";
  Result<GraphSynopsis> decoded = DecodeSynopsisBytes(v1);
  EXPECT_EQ(decoded.status().code(), Status::Code::kCorruption);
  std::string report;
  EXPECT_EQ(VerifySynopsisBytes(v1, &report).code(),
            Status::Code::kCorruption);

  const std::string path = testing::TempDir() + "/retired_v1.xcs";
  ASSERT_TRUE(WriteFileAtomic(path, v1).ok());
  Result<XCluster> loaded = XCluster::Load(path);
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);

  SynopsisStore store;
  ASSERT_TRUE(store.Install("c", XCluster(AllKindSynopses()[0].second)).ok());
  const auto before = store.Get("c");
  auto installed = store.LoadFile("c", path);
  EXPECT_EQ(installed.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(store.Get("c").get(), before.get());
}

TEST(SerializeCorruptionTest, VerifyFailsOnBitFlip) {
  auto kinds = AllKindSynopses();
  std::string bytes = EncodeSynopsisToString(kinds[1].second);
  bytes[bytes.size() / 2] ^= 0x10;
  std::string report;
  Status status = VerifySynopsisBytes(bytes, &report);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
}

}  // namespace
}  // namespace xcluster
