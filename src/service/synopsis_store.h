#ifndef XCLUSTER_SERVICE_SYNOPSIS_STORE_H_
#define XCLUSTER_SERVICE_SYNOPSIS_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/xcluster.h"
#include "estimate/estimator.h"
#include "estimate/flat_estimator.h"
#include "estimate/flat_synopsis.h"
#include "storage/xcsf_mmap_view.h"

namespace xcluster {

/// One immutable synopsis snapshot served by a SynopsisStore: a validated
/// XCSF image (storage::XcsfMmapView) whose columns are served straight
/// from the mapping or the adopted buffer. `.xcsf` files are mmapped;
/// everything else (`.xcs` files, XCSB wire payloads, in-process XCluster
/// installs) is compiled to an in-memory image at install, so every
/// snapshot has the same representation and the same estimates as the
/// `.xcsf` written from the same synopsis.
///
/// Snapshots are shared out as `shared_ptr<const StoredSynopsis>`; a
/// snapshot stays alive for as long as any in-flight request holds it,
/// even after the store has swapped in a replacement or dropped the name —
/// the underlying file mapping is released when the last holder lets go
/// (hot-swap unmaps via shared_ptr release).
class StoredSynopsis {
 public:
  /// Wraps an already validated XCSF view.
  static std::shared_ptr<const StoredSynopsis> Make(
      std::string name, storage::XcsfMmapView view, uint64_t generation,
      EstimateOptions options = EstimateOptions(), std::string source = "");

  const std::string& name() const { return name_; }

  /// The read-optimized flat form, served from the image and pinned for
  /// the snapshot's lifetime.
  const FlatSynopsis& flat() const { return view_.flat(); }

  /// The serving hot path: estimates CompiledTwig plans over flat().
  /// Thread-safe; shared across all requests that hold this snapshot.
  const FlatEstimator& flat_estimator() const { return *flat_estimator_; }

  /// Cluster count (harness/stats surface).
  uint32_t num_clusters() const { return flat().num_nodes(); }

  /// Resident size: the XCSF image byte count.
  size_t size_bytes() const { return view_.image_bytes(); }

  /// Monotonically increasing across the owning store; a reload of the
  /// same name yields a snapshot with a larger generation. Replication
  /// installs (InstallFromWire with a nonzero generation) pin the
  /// router-assigned value instead, so every replica in a fleet reports
  /// the same generation for the same pushed snapshot.
  uint64_t generation() const { return generation_; }

  /// Provenance of this snapshot: the file path it was loaded from, a
  /// "wire:<peer>" tag for replicated installs, or "" for direct
  /// Install() calls. Staleness metadata for cluster stats.
  const std::string& source() const { return source_; }

  /// Monotonic install timestamp (telemetry::MonotonicNowNs at install),
  /// so age-since-install is computable within the serving process.
  uint64_t installed_ns() const { return installed_ns_; }

 private:
  StoredSynopsis(std::string name, storage::XcsfMmapView view,
                 uint64_t generation, EstimateOptions options,
                 std::string source);

  std::string name_;
  storage::XcsfMmapView view_;
  std::unique_ptr<FlatEstimator> flat_estimator_;  // references view_.flat()
  uint64_t generation_ = 0;
  std::string source_;
  uint64_t installed_ns_ = 0;
};

/// A named catalog of immutable synopsis snapshots with RCU-style hot
/// swap: readers resolve a name to a `shared_ptr` snapshot and never block
/// on (or observe a torn state from) a concurrent Install/Remove; writers
/// publish a fully built replacement snapshot with one pointer swap.
///
/// The catalog is sharded by name hash so concurrent lookups of unrelated
/// collections do not contend on one mutex; each shard's lock is held only
/// for the map operation itself, never while loading or building.
class SynopsisStore {
 public:
  static constexpr size_t kDefaultShards = 8;

  /// `estimator_options` configures the estimators built into every
  /// snapshot this store installs (reach-cache capacity in particular).
  explicit SynopsisStore(size_t num_shards = kDefaultShards,
                         EstimateOptions estimator_options = EstimateOptions());

  SynopsisStore(const SynopsisStore&) = delete;
  SynopsisStore& operator=(const SynopsisStore&) = delete;

  /// Directory where XCSF payloads received over the wire are persisted
  /// (atomically) and then mmapped, so a replica restarted after a push
  /// cold-starts from the spooled image. Empty (the default) keeps wire
  /// XCSF installs fully in memory (the payload buffer is adopted).
  /// Configure before serving; not synchronized against installs.
  void SetSpoolDir(std::string dir) { spool_dir_ = std::move(dir); }
  const std::string& spool_dir() const { return spool_dir_; }

  /// Compiles `synopsis` to an in-memory XCSF image (FlatSynopsis →
  /// XcsfWriter::Encode → XcsfMmapView::Adopt) and publishes it under
  /// `name`, replacing any previous snapshot (which stays alive until its
  /// last in-flight reader drops it). Returns the installed snapshot, or
  /// the encode/validate failure (catalog untouched).
  ///
  /// `generation` 0 (the default) auto-assigns the store's next
  /// generation; a nonzero value pins it — replication pushes carry the
  /// router-assigned generation so a whole fleet lands in lockstep — and
  /// bumps the store's counter past it, keeping later local installs
  /// strictly newer. A pinned install whose generation is <= the currently
  /// installed snapshot's generation is rejected as a stale install
  /// (InvalidArgument naming both generations, catalog untouched): stale
  /// or reordered replication pushes must never roll a replica backwards.
  /// `source` is recorded as provenance (see StoredSynopsis::source()).
  Result<std::shared_ptr<const StoredSynopsis>> Install(
      const std::string& name, const XCluster& synopsis,
      uint64_t generation = 0, std::string source = "");

  /// Loads a synopsis file and installs it under `name`, auto-detecting
  /// the format from the magic: `.xcsf` images are mmapped zero-copy
  /// (validated, never parsed), anything else goes through the `.xcs`
  /// decode path (full checksum verification in XCluster::Load) and is
  /// compiled to an in-memory image as in Install. The
  /// load/map runs outside all locks; a failed load leaves any existing
  /// snapshot untouched. A non-empty `source` is prepended to failure
  /// messages (and recorded as the snapshot's provenance) so a load
  /// requested over the wire is attributable to the requesting peer, not
  /// just the server-side path.
  Result<std::shared_ptr<const StoredSynopsis>> LoadFile(
      const std::string& name, const std::string& path,
      const std::string& source = "");

  /// Installs a snapshot received over the wire under `name` with the
  /// given pinned generation (0 = auto), sniffing the payload format:
  /// XCSF images are spooled + mmapped (or adopted in place when no spool
  /// dir is set), XCSB payloads are decoded (every section CRC verified)
  /// and installed as in Install. A pinned generation that does not
  /// exceed the installed snapshot's is rejected as a stale install.
  /// Failures carry `source` (the pushing peer's address) so replication
  /// errors are attributable.
  Result<std::shared_ptr<const StoredSynopsis>> InstallFromWire(
      const std::string& name, std::string_view bytes,
      const std::string& source, uint64_t generation = 0);

  /// Current snapshot for `name`, or nullptr if absent.
  std::shared_ptr<const StoredSynopsis> Get(const std::string& name) const;

  /// Drops `name` from the catalog. Returns false if it was absent.
  bool Remove(const std::string& name);

  /// Sorted names of all cataloged synopses.
  std::vector<std::string> List() const;

  /// Number of cataloged synopses.
  size_t size() const;

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::vector<std::pair<std::string, std::shared_ptr<const StoredSynopsis>>>
        entries;  // small per shard; linear scan beats map overhead
  };

  Shard& ShardFor(const std::string& name) const;

  /// Resolves the generation for an install: 0 draws the next local
  /// number; a nonzero pinned value is kept and the local counter is
  /// bumped strictly past it.
  uint64_t AssignGeneration(uint64_t generation);

  /// Wraps `view` as a snapshot under the resolved generation and swaps
  /// it into its shard. For pinned installs (`generation` != 0) an
  /// existing entry with a generation >= the snapshot's wins instead
  /// (stale-install InvalidArgument, catalog untouched). The replaced
  /// snapshot is released outside the shard lock.
  Result<std::shared_ptr<const StoredSynopsis>> Publish(
      const std::string& name, storage::XcsfMmapView view,
      uint64_t generation, std::string source);

  /// Opens the view for an XCSF wire payload: spool + mmap when a spool
  /// dir is configured, adopt-in-place otherwise.
  Result<storage::XcsfMmapView> OpenXcsfFromWire(const std::string& name,
                                                 std::string_view bytes);

  std::vector<std::unique_ptr<Shard>> shards_;
  EstimateOptions estimator_options_;
  std::atomic<uint64_t> next_generation_{1};
  std::string spool_dir_;
};

}  // namespace xcluster

#endif  // XCLUSTER_SERVICE_SYNOPSIS_STORE_H_
