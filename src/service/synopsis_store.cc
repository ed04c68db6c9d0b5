#include "service/synopsis_store.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <utility>

#include "common/io/file_io.h"
#include "common/telemetry/telemetry.h"
#include "core/serialize.h"
#include "storage/xcsf_format.h"
#include "storage/xcsf_writer.h"

namespace xcluster {

namespace {

/// Spool file name for a catalog entry: the synopsis name with anything
/// path-hostile flattened to '_', plus the format suffix.
std::string SpoolFileName(const std::string& name) {
  std::string file = name;
  for (char& c : file) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    if (!safe) c = '_';
  }
  return file + ".xcsf";
}

}  // namespace

StoredSynopsis::StoredSynopsis(std::string name, storage::XcsfMmapView view,
                               uint64_t generation, EstimateOptions options,
                               std::string source)
    : name_(std::move(name)),
      view_(std::move(view)),
      generation_(generation),
      source_(std::move(source)),
      installed_ns_(telemetry::MonotonicNowNs()) {
  // The view's FlatSynopsis serves directly. Its address is stable across
  // the view_ move above (held by unique_ptr inside the view).
  flat_estimator_ = std::make_unique<FlatEstimator>(view_.flat(), options);
}

std::shared_ptr<const StoredSynopsis> StoredSynopsis::Make(
    std::string name, storage::XcsfMmapView view, uint64_t generation,
    EstimateOptions options, std::string source) {
  return std::shared_ptr<const StoredSynopsis>(
      new StoredSynopsis(std::move(name), std::move(view), generation,
                         options, std::move(source)));
}

SynopsisStore::SynopsisStore(size_t num_shards,
                             EstimateOptions estimator_options)
    : estimator_options_(estimator_options) {
  shards_.reserve(num_shards == 0 ? 1 : num_shards);
  for (size_t i = 0; i < std::max<size_t>(num_shards, 1); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SynopsisStore::Shard& SynopsisStore::ShardFor(const std::string& name) const {
  return *shards_[std::hash<std::string>()(name) % shards_.size()];
}

uint64_t SynopsisStore::AssignGeneration(uint64_t generation) {
  if (generation == 0) {
    return next_generation_.fetch_add(1, std::memory_order_relaxed);
  }
  // Pinned (replicated) generation: keep the local counter strictly
  // above it so a later auto-assigned install never reuses or
  // undercuts a fleet-assigned number.
  uint64_t next = next_generation_.load(std::memory_order_relaxed);
  while (next <= generation &&
         !next_generation_.compare_exchange_weak(
             next, generation + 1, std::memory_order_relaxed)) {
  }
  return generation;
}

Result<std::shared_ptr<const StoredSynopsis>> SynopsisStore::Publish(
    const std::string& name, storage::XcsfMmapView view, uint64_t generation,
    std::string source) {
  const bool pinned = generation != 0;
  // Build the snapshot (estimator construction included) before touching
  // the shard, so the lock covers only the pointer swap.
  std::shared_ptr<const StoredSynopsis> snapshot = StoredSynopsis::Make(
      name, std::move(view), AssignGeneration(generation), estimator_options_,
      std::move(source));
  Shard& shard = ShardFor(name);
  std::shared_ptr<const StoredSynopsis> replaced;  // destroyed outside lock
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    for (auto& [entry_name, entry] : shard.entries) {
      if (entry_name == name) {
        // A pinned (replicated) install must move the name forward: two
        // concurrent or retried pushes can arrive in either order on
        // different replicas, and letting an older generation overwrite a
        // newer one would leave the fleet serving different snapshots
        // while stats claim lockstep. The generation decides, not arrival
        // order.
        if (pinned && entry->generation() >= snapshot->generation()) {
          XCLUSTER_COUNTER_INC("service.store.stale_installs");
          return Status::InvalidArgument(
              "stale install of " + name + ": pinned generation " +
              std::to_string(generation) + " <= installed generation " +
              std::to_string(entry->generation()));
        }
        replaced = std::move(entry);
        entry = snapshot;
        break;
      }
    }
    if (replaced == nullptr) shard.entries.emplace_back(name, snapshot);
  }
  XCLUSTER_COUNTER_INC("service.store.installs");
  XCLUSTER_GAUGE_SET("service.store.synopses", size());
  return snapshot;
}

Result<std::shared_ptr<const StoredSynopsis>> SynopsisStore::Install(
    const std::string& name, const XCluster& synopsis, uint64_t generation,
    std::string source) {
  std::string image;
  XC_RETURN_IF_ERROR(
      storage::XcsfWriter::Encode(FlatSynopsis(synopsis.synopsis()), &image));
  Result<storage::XcsfMmapView> view =
      storage::XcsfMmapView::Adopt(std::move(image));
  if (!view.ok()) return view.status();
  return Publish(name, std::move(view).value(), generation, std::move(source));
}

Result<std::shared_ptr<const StoredSynopsis>> SynopsisStore::LoadFile(
    const std::string& name, const std::string& path,
    const std::string& source) {
  const std::string provenance = source.empty() ? path : source;
  Result<std::shared_ptr<const StoredSynopsis>> installed = [&]()
      -> Result<std::shared_ptr<const StoredSynopsis>> {
    if (storage::SniffXcsfFile(path)) {
      // XCSF image: validate + mmap, serve zero-copy, never parsed.
      Result<storage::XcsfMmapView> view = storage::XcsfMmapView::Open(path);
      if (!view.ok()) return view.status();
      XCLUSTER_COUNTER_INC("service.store.mmap_loads");
      return Publish(name, std::move(view).value(), /*generation=*/0,
                     provenance);
    }
    Result<XCluster> loaded = XCluster::Load(path);
    if (!loaded.ok()) return loaded.status();
    return Install(name, loaded.value(), /*generation=*/0, provenance);
  }();
  // A failed load leaves any existing snapshot untouched. One requested
  // over the wire must name the peer that asked for it, not just the
  // server-side path.
  if (installed.ok() || source.empty()) return installed;
  return Status::WithContext(installed.status(),
                             "load requested by " + source);
}

Result<storage::XcsfMmapView> SynopsisStore::OpenXcsfFromWire(
    const std::string& name, std::string_view bytes) {
  if (spool_dir_.empty()) {
    // No spool: adopt the payload buffer in place (one copy off the wire,
    // no file).
    return storage::XcsfMmapView::Adopt(std::string(bytes));
  }
  // Spool + mmap: the replica persists the image (atomic temp+rename) and
  // serves from the mapping, so a restart cold-starts from disk.
  const std::string path = spool_dir_ + "/" + SpoolFileName(name);
  XC_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
  XCLUSTER_COUNTER_INC("service.store.spooled_installs");
  return storage::XcsfMmapView::Open(path);
}

Result<std::shared_ptr<const StoredSynopsis>> SynopsisStore::InstallFromWire(
    const std::string& name, std::string_view bytes,
    const std::string& source, uint64_t generation) {
  Result<std::shared_ptr<const StoredSynopsis>> installed = [&]()
      -> Result<std::shared_ptr<const StoredSynopsis>> {
    if (storage::LooksLikeXcsf(bytes)) {
      Result<storage::XcsfMmapView> view = OpenXcsfFromWire(name, bytes);
      if (!view.ok()) return view.status();
      return Publish(name, std::move(view).value(), generation,
                     "wire:" + source);
    }
    Result<GraphSynopsis> decoded = DecodeSynopsisBytes(bytes);
    if (!decoded.ok()) return decoded.status();
    return Install(name, XCluster(std::move(decoded).value()), generation,
                   "wire:" + source);
  }();
  if (!installed.ok()) {
    return Status::WithContext(installed.status(), "install from " + source);
  }
  XCLUSTER_COUNTER_INC("service.store.wire_installs");
  return installed;
}

std::shared_ptr<const StoredSynopsis> SynopsisStore::Get(
    const std::string& name) const {
  const Shard& shard = ShardFor(name);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  for (const auto& [entry_name, entry] : shard.entries) {
    if (entry_name == name) {
      XCLUSTER_COUNTER_INC("service.store.hits");
      return entry;
    }
  }
  XCLUSTER_COUNTER_INC("service.store.misses");
  return nullptr;
}

bool SynopsisStore::Remove(const std::string& name) {
  Shard& shard = ShardFor(name);
  std::shared_ptr<const StoredSynopsis> removed;  // destroyed outside lock
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
      if (it->first == name) {
        removed = std::move(it->second);
        shard.entries.erase(it);
        break;
      }
    }
  }
  if (removed == nullptr) return false;
  XCLUSTER_GAUGE_SET("service.store.synopses", size());
  return true;
}

std::vector<std::string> SynopsisStore::List() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [name, entry] : shard->entries) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t SynopsisStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace xcluster
