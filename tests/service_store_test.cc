#include "service/synopsis_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "estimate/compiled_twig.h"
#include "query/parser.h"
#include "storage/xcsf_writer.h"

namespace xcluster {
namespace {

TwigQuery MustParse(std::string_view input) {
  Result<TwigQuery> result = ParseTwig(input);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A tiny synopsis R -count-> A whose estimate for /A is `count` — each
/// generation installs a different count so tests can tell snapshots
/// apart by their estimates.
XCluster MakeSynopsis(double count) {
  GraphSynopsis synopsis;
  SynNodeId root = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, count);
  synopsis.AddEdge(root, a, count);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

/// Estimate through the serving hot path (flat estimator over a compiled
/// plan) — the only estimation surface a snapshot provides.
double FlatEstimate(const StoredSynopsis& snapshot, const std::string& query) {
  const CompiledTwig plan =
      CompiledTwig::Compile(MustParse(query), snapshot.flat());
  return snapshot.flat_estimator().Estimate(plan);
}

/// Installs MakeSynopsis(count) under `name`, failing the test on error.
std::shared_ptr<const StoredSynopsis> MustInstall(SynopsisStore& store,
                                                  const std::string& name,
                                                  double count,
                                                  uint64_t generation = 0) {
  auto installed = store.Install(name, MakeSynopsis(count), generation);
  EXPECT_TRUE(installed.ok()) << installed.status().ToString();
  return installed.ok() ? installed.value() : nullptr;
}

TEST(SynopsisStoreTest, InstallGetRemove) {
  SynopsisStore store;
  EXPECT_EQ(store.Get("movies"), nullptr);
  EXPECT_EQ(store.size(), 0u);

  auto installed = MustInstall(store, "movies", 7.0);
  ASSERT_NE(installed, nullptr);
  EXPECT_EQ(installed->name(), "movies");

  auto fetched = store.Get("movies");
  ASSERT_NE(fetched, nullptr);
  EXPECT_EQ(fetched.get(), installed.get());
  EXPECT_EQ(store.size(), 1u);

  EXPECT_TRUE(store.Remove("movies"));
  EXPECT_EQ(store.Get("movies"), nullptr);
  EXPECT_FALSE(store.Remove("movies"));
}

TEST(SynopsisStoreTest, GenerationsIncreaseAcrossReinstalls) {
  SynopsisStore store;
  auto first = MustInstall(store, "c", 1.0);
  auto second = MustInstall(store, "c", 2.0);
  auto other = MustInstall(store, "d", 3.0);
  EXPECT_LT(first->generation(), second->generation());
  EXPECT_LT(second->generation(), other->generation());
  EXPECT_EQ(store.Get("c")->generation(), second->generation());
}

TEST(SynopsisStoreTest, StalePinnedInstallIsRejected) {
  SynopsisStore store;
  auto current = MustInstall(store, "c", 1.0, /*generation=*/10);
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->generation(), 10u);

  // A pinned install that does not move the generation forward must not
  // replace the snapshot — delayed or reordered replication pushes would
  // otherwise roll a replica backwards.
  for (const uint64_t stale : {uint64_t{10}, uint64_t{7}}) {
    auto rejected = store.Install("c", MakeSynopsis(2.0), stale);
    EXPECT_FALSE(rejected.ok()) << "generation " << stale;
    EXPECT_EQ(rejected.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find("stale install"),
              std::string::npos);
  }
  EXPECT_EQ(store.Get("c").get(), current.get());

  // A newer pinned generation still lands, and auto-assigned installs are
  // never rejected (they always draw a fresh, larger generation).
  auto newer = MustInstall(store, "c", 3.0, /*generation=*/11);
  ASSERT_NE(newer, nullptr);
  EXPECT_EQ(newer->generation(), 11u);
  auto autogen = MustInstall(store, "c", 4.0);
  ASSERT_NE(autogen, nullptr);
  EXPECT_GT(autogen->generation(), 11u);
}

TEST(SynopsisStoreTest, ListIsSortedAcrossShards) {
  SynopsisStore store(4);
  for (const char* name : {"zeta", "alpha", "mid", "beta"}) {
    MustInstall(store, name, 1.0);
  }
  EXPECT_EQ(store.List(),
            (std::vector<std::string>{"alpha", "beta", "mid", "zeta"}));
  EXPECT_EQ(store.size(), 4u);
}

TEST(SynopsisStoreTest, SnapshotSurvivesReplaceAndRemove) {
  SynopsisStore store;
  MustInstall(store, "c", 5.0);
  auto held = store.Get("c");  // in-flight request holds the snapshot

  MustInstall(store, "c", 9.0);  // hot swap
  EXPECT_NE(store.Get("c").get(), held.get());
  // The old snapshot still answers queries with its own data.
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
  EXPECT_NEAR(FlatEstimate(*store.Get("c"), "/A"), 9.0, 1e-9);

  store.Remove("c");
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
}

TEST(SynopsisStoreTest, LoadFileFailureLeavesCatalogUntouched) {
  SynopsisStore store;
  MustInstall(store, "c", 4.0);
  auto before = store.Get("c");
  auto loaded = store.LoadFile("c", "/nonexistent/path.xcs");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(store.Get("c").get(), before.get());
}

// RCU semantics under contention: readers estimate continuously while a
// writer hot-swaps the same name; every read sees a complete snapshot
// (estimate matches that snapshot's generation parity, never a torn mix).
TEST(SynopsisStoreTest, ConcurrentHotSwapNeverTearsReaders) {
  SynopsisStore store;
  MustInstall(store, "c", 100.0);

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = store.Get("c");
        if (snapshot == nullptr) continue;  // momentarily removed
        const double estimate = FlatEstimate(*snapshot, "/A");
        // Writers only ever install counts 100 or 200.
        EXPECT_TRUE(estimate == 100.0 || estimate == 200.0) << estimate;
        ++reads;
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      MustInstall(store, "c", i % 2 == 0 ? 200.0 : 100.0);
      if (i % 50 == 0) {
        store.Remove("c");
        MustInstall(store, "c", 100.0);
      }
    }
    stop = true;
  });

  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0);
}

// --- XCSF snapshots ---------------------------------------------------------

/// Writes MakeSynopsis(count) as an XCSF image and returns its path.
std::string WriteXcsf(const std::string& file, double count) {
  const std::string path = testing::TempDir() + "/" + file;
  EXPECT_TRUE(storage::XcsfWriter::WriteGraph(MakeSynopsis(count).synopsis(),
                                              path, /*sync=*/false)
                  .ok());
  return path;
}

TEST(SynopsisStoreTest, LoadFileAutoDetectsXcsf) {
  SynopsisStore store;
  const std::string path = WriteXcsf("store_autodetect.xcsf", 7.0);
  auto loaded = store.LoadFile("movies", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& snapshot = *loaded.value();
  EXPECT_EQ(snapshot.num_clusters(), 2u);
  EXPECT_GT(snapshot.size_bytes(), 0u);
  EXPECT_EQ(snapshot.source(), path);
  EXPECT_NEAR(FlatEstimate(snapshot, "/A"), 7.0, 1e-9);
  // The same store also still takes XCluster installs under other names.
  auto graph = MustInstall(store, "graph", 3.0);
  EXPECT_NEAR(FlatEstimate(*graph, "/A"), 3.0, 1e-9);
}

/// Fig. 7-style synopsis with a numeric value summary, so the comparison
/// below covers predicates and descendant reach, not just one edge.
XCluster MakeValuedSynopsis() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 100.0);
  SynNodeId c = synopsis.AddNode("C", ValueType::kNumeric, 500.0);
  SynNodeId d = synopsis.AddNode("D", ValueType::kNone, 50.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.AddEdge(b, c, 5.0);
  synopsis.AddEdge(a, d, 5.0);
  std::vector<int64_t> values;
  for (int64_t v = 0; v < 10; ++v) values.push_back(v);
  synopsis.node(c).vsumm = ValueSummary::FromNumeric(std::move(values), 16);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

TEST(SynopsisStoreTest, XClusterInstallMatchesLoadedXcsfBitForBit) {
  const XCluster synopsis = MakeValuedSynopsis();
  const std::string path =
      testing::TempDir() + "/store_install_vs_load.xcsf";
  ASSERT_TRUE(storage::XcsfWriter::WriteGraph(synopsis.synopsis(), path,
                                              /*sync=*/false)
                  .ok());
  SynopsisStore store;
  auto installed = store.Install("installed", synopsis);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  auto loaded = store.LoadFile("loaded", path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Both are the same image: same bytes, same clusters, same doubles.
  EXPECT_EQ(installed.value()->size_bytes(), loaded.value()->size_bytes());
  EXPECT_EQ(installed.value()->num_clusters(), loaded.value()->num_clusters());
  for (const char* query :
       {"/A", "/A/B", "/A/B/C[range(0,4)]", "//C[range(2,7)]", "//*",
        "/A[/B]/D", "//A//C", "/Z"}) {
    EXPECT_EQ(FlatEstimate(*installed.value(), query),
              FlatEstimate(*loaded.value(), query))
        << query;
  }
}

TEST(SynopsisStoreTest, HotSwapOfMappedSnapshotBumpsGeneration) {
  SynopsisStore store;
  auto first =
      store.LoadFile("c", WriteXcsf("store_swap_1.xcsf", 5.0));
  ASSERT_TRUE(first.ok());
  auto held = store.Get("c");  // in-flight request pins the mapping

  auto second =
      store.LoadFile("c", WriteXcsf("store_swap_2.xcsf", 9.0));
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value()->generation(), first.value()->generation());
  EXPECT_NE(store.Get("c").get(), held.get());
  // The replaced mapped snapshot still serves until released; the swap
  // unmaps only when the last holder lets go of the shared_ptr.
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
  EXPECT_NEAR(FlatEstimate(*store.Get("c"), "/A"), 9.0, 1e-9);
  store.Remove("c");
  EXPECT_NEAR(FlatEstimate(*held, "/A"), 5.0, 1e-9);
}

TEST(SynopsisStoreTest, FailedXcsfLoadLeavesCatalogUntouched) {
  SynopsisStore store;
  MustInstall(store, "c", 4.0);
  auto before = store.Get("c");
  // Right magic, garbage body: sniffed as XCSF, rejected by validation.
  const std::string path = testing::TempDir() + "/store_corrupt.xcsf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("XCSF garbage that is not a real image", f);
  std::fclose(f);
  auto loaded = store.LoadFile("c", path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(store.Get("c").get(), before.get());
}

TEST(SynopsisStoreTest, TwoStoresMapTheSameFileConcurrently) {
  const std::string path = WriteXcsf("store_shared.xcsf", 6.0);
  SynopsisStore a;
  SynopsisStore b;
  ASSERT_TRUE(a.LoadFile("c", path).ok());
  ASSERT_TRUE(b.LoadFile("c", path).ok());
  EXPECT_NEAR(FlatEstimate(*a.Get("c"), "/A"), 6.0, 1e-9);
  EXPECT_NEAR(FlatEstimate(*b.Get("c"), "/A"), 6.0, 1e-9);
  // Dropping one store's snapshot must not disturb the other's mapping.
  EXPECT_TRUE(a.Remove("c"));
  EXPECT_NEAR(FlatEstimate(*b.Get("c"), "/A"), 6.0, 1e-9);
}

TEST(SynopsisStoreTest, WireXcsfInstallAdoptsBufferAndRespectsGenerations) {
  std::string image;
  {
    GraphSynopsis synopsis = MakeSynopsis(8.0).synopsis();
    FlatSynopsis flat(synopsis);
    ASSERT_TRUE(storage::XcsfWriter::Encode(flat, &image).ok());
  }
  SynopsisStore store;
  auto installed = store.InstallFromWire("c", image, "peer-1", 5);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  EXPECT_EQ(installed.value()->generation(), 5u);
  EXPECT_EQ(installed.value()->source(), "wire:peer-1");
  EXPECT_NEAR(FlatEstimate(*installed.value(), "/A"), 8.0, 1e-9);
  // A stale pinned push must not roll the replica backwards.
  auto stale = store.InstallFromWire("c", image, "peer-2", 5);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(store.Get("c")->generation(), 5u);
}

TEST(SynopsisStoreTest, WireXcsfInstallSpoolsToDisk) {
  std::string image;
  {
    GraphSynopsis synopsis = MakeSynopsis(2.0).synopsis();
    FlatSynopsis flat(synopsis);
    ASSERT_TRUE(storage::XcsfWriter::Encode(flat, &image).ok());
  }
  SynopsisStore store;
  store.SetSpoolDir(testing::TempDir());
  auto installed = store.InstallFromWire("c/with:odd chars", image, "peer", 0);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  // The spooled image is a complete, loadable XCSF file: a restarted
  // replica can cold-start straight from it.
  const std::string spooled =
      testing::TempDir() + "/c_with_odd_chars.xcsf";
  SynopsisStore restarted;
  auto reloaded = restarted.LoadFile("c", spooled);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_NEAR(FlatEstimate(*reloaded.value(), "/A"), 2.0, 1e-9);
}

}  // namespace
}  // namespace xcluster
