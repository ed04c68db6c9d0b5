#include "build/builder.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "build/pool.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"

namespace xcluster {

namespace {

/// A merge candidate as the heap holds it: its ordering key computed once,
/// and only what a pop reads.
struct HeapEntry {
  double ratio;
  SynNodeId u;
  SynNodeId v;
  uint32_t version_u;
  uint32_t version_v;

  explicit HeapEntry(const MergeCandidate& c)
      : ratio(c.ratio()),
        u(c.u),
        v(c.v),
        version_u(c.version_u),
        version_v(c.version_v) {}
};

struct CandidateOrder {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.ratio != b.ratio) return a.ratio > b.ratio;  // min-heap
    if (a.u != b.u) return a.u > b.u;
    return a.v > b.v;
  }
};

using CandidateHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, CandidateOrder>;

/// Alive node ids per (label, type), ascending. Kept current across merges,
/// so finding a merged node's compatible peers does not rescan the arena.
class PeerIndex {
 public:
  explicit PeerIndex(const GraphSynopsis& synopsis) {
    for (SynNodeId id : synopsis.AliveNodes()) {
      groups_[KeyOf(synopsis, id)].push_back(id);
    }
  }

  /// Records that MergeNodes(u, v) returned w and returns w's group: w
  /// (last, being the newest id) and its compatible peers.
  const std::vector<SynNodeId>& Merged(const GraphSynopsis& synopsis,
                                       SynNodeId u, SynNodeId v,
                                       SynNodeId w) {
    std::vector<SynNodeId>& group = groups_[KeyOf(synopsis, w)];
    for (SynNodeId gone : {u, v}) {
      group.erase(std::lower_bound(group.begin(), group.end(), gone));
    }
    group.push_back(w);
    return group;
  }

 private:
  using Key = std::pair<SymbolId, ValueType>;

  static Key KeyOf(const GraphSynopsis& synopsis, SynNodeId id) {
    return {synopsis.node(id).label, synopsis.node(id).type};
  }

  std::map<Key, std::vector<SynNodeId>> groups_;
};

/// Phase 1 under the localized-delta (or count-only) policy: a marginal-loss
/// min-heap with per-node version staleness checks and level-scheduled pool
/// rebuilds. One DeltaScorer memoizes per-node predicates for the whole
/// phase; it is freed when the phase returns.
void GuidedMergePhase(GraphSynopsis* synopsis, const BuildOptions& options,
                      const DeltaOptions& delta_options, BuildStats* stats) {
  DeltaScorer scorer(delta_options);
  PeerIndex peer_index(*synopsis);
  uint32_t level_cap = 0;
  // Counted once per stage, then kept current by subtracting each merge's
  // savings instead of recounting the whole arena per heap pop.
  size_t structural = 0;
  while ((structural = synopsis->StructuralBytes()) >
         options.structural_budget) {
    std::vector<MergeCandidate> pool;
    {
      // Pool construction is where the delta metric dominates: every
      // candidate pair is scored here or in the staleness re-evaluations
      // below.
      XCLUSTER_SCOPED_TIMER_NS("build.pool_rebuild_ns");
      pool = BuildPool(*synopsis, options.pool_max, level_cap, &scorer,
                       options.pair_sample_cap);
    }
    XCLUSTER_COUNTER_INC("build.pool_rebuilds");
    XCLUSTER_COUNTER_ADD("build.candidates_evaluated", pool.size());
    if (stats != nullptr) {
      ++stats->pool_rebuilds;
      stats->candidates_evaluated += pool.size();
    }
    if (pool.empty()) {
      // Nothing mergeable at this level: raise the cap, or stop at the
      // per-(label, type) floor once every level is in scope.
      std::vector<uint32_t> levels = synopsis->ComputeLevels();
      uint32_t max_level = 0;
      for (SynNodeId id : synopsis->AliveNodes()) {
        max_level = std::max(max_level, levels[id]);
      }
      if (level_cap >= max_level) return;  // merge floor reached
      ++level_cap;
      continue;
    }

    CandidateHeap heap(CandidateOrder(),
                       std::vector<HeapEntry>(pool.begin(), pool.end()));
    // Low-water mark: rebuild once the pool drains below Hl (halved for
    // pools that start small so tiny synopses don't rebuild per merge).
    const size_t low_water = std::min(options.pool_min, heap.size() / 2);
    size_t merges_this_stage = 0;
    while (!heap.empty() && structural > options.structural_budget) {
      const HeapEntry candidate = heap.top();
      heap.pop();
      if (!synopsis->node(candidate.u).alive ||
          !synopsis->node(candidate.v).alive) {
        continue;
      }
      if (candidate.version_u != synopsis->node(candidate.u).version ||
          candidate.version_v != synopsis->node(candidate.v).version) {
        // Stale: the neighborhood changed since scoring; re-evaluate lazily.
        heap.emplace(
            EvaluateCandidate(*synopsis, candidate.u, candidate.v, &scorer));
        XCLUSTER_COUNTER_INC("build.candidates_evaluated");
        XCLUSTER_COUNTER_INC("build.candidates_rescored");
        if (stats != nullptr) ++stats->candidates_evaluated;
        continue;
      }
      structural -= MergeSavings(*synopsis, candidate.u, candidate.v);
      SynNodeId w = synopsis->MergeNodes(candidate.u, candidate.v);
      assert(structural == synopsis->StructuralBytes());
      scorer.Forget(candidate.u);
      scorer.Forget(candidate.v);
      ++merges_this_stage;
      XCLUSTER_COUNTER_INC("build.merges_applied");
      if (stats != nullptr) ++stats->merges_applied;

      // Recompute losses in the new node's neighborhood: pair w against its
      // compatible peers, in ascending id order.
      const std::vector<SynNodeId>& group =
          peer_index.Merged(*synopsis, candidate.u, candidate.v, w);
      XCLUSTER_COUNTER_ADD("build.candidates_evaluated", group.size() - 1);
      for (SynNodeId peer : group) {
        if (peer == w) continue;
        heap.emplace(EvaluateCandidate(*synopsis, peer, w, &scorer));
        if (stats != nullptr) ++stats->candidates_evaluated;
      }
      if (heap.size() < low_water) break;  // replenish the pool
    }
    if (structural <= options.structural_budget) return;
    // A productive stage rebuilds at the same level; a barren one widens
    // the level window (the paper's bottom-up schedule).
    if (merges_this_stage == 0) ++level_cap;
  }
}

/// Phase 1 under the random policy: seeded random compatible pairs.
void RandomMergePhase(GraphSynopsis* synopsis, const BuildOptions& options,
                      BuildStats* stats) {
  Rng rng(options.seed);
  while (synopsis->StructuralBytes() > options.structural_budget) {
    std::map<std::pair<SymbolId, ValueType>, std::vector<SynNodeId>> groups;
    for (SynNodeId id : synopsis->AliveNodes()) {
      const SynNode& node = synopsis->node(id);
      groups[{node.label, node.type}].push_back(id);
    }
    std::vector<const std::vector<SynNodeId>*> mergeable;
    for (const auto& [key, members] : groups) {
      if (members.size() >= 2) mergeable.push_back(&members);
    }
    if (mergeable.empty()) return;  // merge floor reached
    const std::vector<SynNodeId>& group =
        *mergeable[rng.Uniform(mergeable.size())];
    size_t i = rng.Uniform(group.size());
    size_t j = rng.Uniform(group.size() - 1);
    if (j >= i) ++j;
    synopsis->MergeNodes(group[i], group[j]);
    if (stats != nullptr) ++stats->merges_applied;
  }
}

}  // namespace

GraphSynopsis XClusterBuild(const GraphSynopsis& reference,
                            const BuildOptions& options, BuildStats* stats) {
  XCLUSTER_TRACE_SPAN("build.xclusterbuild");
  XCLUSTER_COUNTER_INC("build.builds");
  XCLUSTER_COUNTER_ADD("build.reference_nodes", reference.NodeCount());
  GraphSynopsis synopsis = reference;
  if (stats != nullptr) {
    *stats = BuildStats();
    stats->reference_nodes = reference.NodeCount();
    stats->reference_bytes =
        reference.StructuralBytes() + reference.ValueBytes();
  }

  // --- Phase 1: structure-value merges down to the structural budget.
  {
    XCLUSTER_TRACE_SPAN("build.phase1");
    XCLUSTER_SCOPED_TIMER_NS("build.phase1_ns");
    if (synopsis.StructuralBytes() > options.structural_budget) {
      if (options.policy == MergePolicy::kRandom) {
        RandomMergePhase(&synopsis, options, stats);
      } else {
        DeltaOptions delta_options = options.delta;
        if (options.policy == MergePolicy::kCountOnly) {
          delta_options.use_value_summaries = false;
        }
        GuidedMergePhase(&synopsis, options, delta_options, stats);
      }
    }
    synopsis.Compact();
  }
  if (options.verbose) {
    std::fprintf(stderr,
                 "xclusterbuild: phase 1 done, %zu nodes, %zu structural "
                 "bytes (budget %zu)\n",
                 synopsis.NodeCount(), synopsis.StructuralBytes(),
                 options.structural_budget);
  }

  // --- Phase 2: value compression down to the value budget.
  size_t value_before = synopsis.ValueBytes();
  size_t value_after = 0;
  {
    XCLUSTER_TRACE_SPAN("build.phase2");
    XCLUSTER_SCOPED_TIMER_NS("build.phase2_ns");
    value_after = CompressValueSummaries(&synopsis, options.value_budget,
                                         options.compress);
  }
  if (options.verbose) {
    std::fprintf(stderr,
                 "xclusterbuild: phase 2 done, %zu -> %zu value bytes "
                 "(budget %zu)\n",
                 value_before, value_after, options.value_budget);
  }

  XCLUSTER_COUNTER_ADD("build.value_bytes_compressed",
                       value_before - value_after);
  if (stats != nullptr) {
    stats->value_bytes_compressed = value_before - value_after;
    stats->final_structural_bytes = synopsis.StructuralBytes();
    stats->final_value_bytes = value_after;
  }
  return synopsis;
}

GraphSynopsis BuildXCluster(const XmlDocument& doc,
                            const ReferenceOptions& ref_options,
                            const BuildOptions& options, BuildStats* stats) {
  GraphSynopsis reference;
  {
    XCLUSTER_TRACE_SPAN("build.reference");
    XCLUSTER_SCOPED_TIMER_NS("build.reference_ns");
    reference = BuildReferenceSynopsis(doc, ref_options);
  }
  return XClusterBuild(reference, options, stats);
}

}  // namespace xcluster
