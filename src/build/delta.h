#ifndef XCLUSTER_BUILD_DELTA_H_
#define XCLUSTER_BUILD_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "summaries/value_summary.h"
#include "synopsis/graph.h"

namespace xcluster {

/// Parameters of the localized Delta(S, S') clustering-error metric
/// (Sec. 4.1).
struct DeltaOptions {
  /// When false, only the trivial always-true predicate is charged (the
  /// structure-only TreeSketch-style metric used in ablations).
  bool use_value_summaries = true;

  /// Upper bound on the number of atomic predicates enumerated from the
  /// pair's value summaries (deterministic sampling; the trivial predicate
  /// is always included on top).
  size_t atomic_pred_cap = 16;
};

/// Scores phase-1 merges with the localized Delta(S, S') metric and their
/// structural savings.
///
/// Each node's sampled atomic predicates, with their selectivities on the
/// node's own summary, are computed once and memoized by SynNodeId. No
/// such entry goes stale: MergeNodes gives the merged node a fresh id and
/// never changes a live node's value summary, so a scorer stays valid
/// across merges of the synopsis it scores (Forget frees a merged-away
/// node's entry). sigma_p of the merged node comes from MergedSelectivity,
/// which builds the fused summary only for NUMERIC pairs. Each node's
/// child edges and parents are also memoized sorted, keyed by the node's
/// version (which MergeNodes bumps on every node whose edges or parents it
/// rewrites), so a pair's mapped targets and shared parents come from
/// linear merges. Scores are bit-identical to evaluating every predicate
/// on ValueSummary::Merge with the targets summed in a std::map.
class DeltaScorer {
 public:
  explicit DeltaScorer(const DeltaOptions& options) : options_(options) {}

  /// Marginal clustering error of merging u and v (which must be alive and
  /// label/type compatible): the extent-weighted sum of squared
  /// differences of e(x, p, c) = sigma_p(x) * count(x, c) between the
  /// original nodes and the merged node, over the enumerated atomic
  /// predicates p and the mapped child targets c (plus an implicit count-1
  /// self target so leaf value drift is charged). The predicates are the
  /// trivial one, then up to `atomic_pred_cap` drawn from both summaries
  /// (half from each, u's first).
  double MergeDelta(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

  struct PairScore {
    double delta = 0.0;  ///< MergeDelta(synopsis, u, v)
    size_t savings = 0;  ///< MergeSavings(synopsis, u, v)
  };

  /// MergeDelta and MergeSavings of one pair, from one pass over the two
  /// nodes' memoized edges.
  PairScore Score(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

  /// Drops the memo entry of a node that is no longer alive.
  void Forget(SynNodeId id);

 private:
  /// A child edge and its position in the node's stored edge list.
  struct SortedEdge {
    SynNodeId target;
    uint32_t order;
    double count;
  };

  struct NodeMemo {
    bool preds_ready = false;
    std::vector<AtomicPredicate> preds;
    std::vector<double> sigma;  ///< selectivity on the node's own summary

    bool edges_ready = false;
    uint32_t edges_version = 0;        ///< node version the edges are of
    std::vector<SortedEdge> children;  ///< by target, then stored order
    std::vector<SynNodeId> parents;    ///< ascending
  };

  /// Summed child counts of u and v per mapped target.
  struct TargetCounts {
    SynNodeId target;
    double from_u;
    double from_v;
  };

  /// Grows the memo to the arena; entries are then safe to hold until the
  /// next call.
  void Reserve(const GraphSynopsis& synopsis);
  const NodeMemo& PredicatesOf(const GraphSynopsis& synopsis, SynNodeId id);
  /// The memo entry with the node's sorted edges brought up to date.
  const NodeMemo& EdgesOf(const GraphSynopsis& synopsis, SynNodeId id);

  /// Adds to `sum`, in stored order, the counts of the edges in `edges`
  /// whose target is u or v; returns whether there were any.
  static bool AddFoldedCounts(const std::vector<SortedEdge>& edges,
                              SynNodeId u, SynNodeId v, double* sum);

  /// Fills targets_ with the merged node's child targets (u and v folded
  /// onto u) in ascending order, each side's counts summed in stored edge
  /// order.
  void MapTargets(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

  /// MergeDelta over the targets MapTargets left in targets_.
  double Delta(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

  DeltaOptions options_;
  std::vector<NodeMemo> memo_;         ///< indexed by SynNodeId
  std::vector<TargetCounts> targets_;  ///< MapTargets output
};

/// Structural bytes freed by MergeNodes(u, v) under the synopsis size model:
/// one node plus every collapsing duplicate edge. Matches the realized
/// StructuralBytes() delta exactly (tested).
size_t MergeSavings(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v);

/// Marginal error of replacing u's value summary with `compressed` (phase-2
/// candidate scoring): same formula with the node's own extent and targets.
double CompressionDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        const ValueSummary& compressed,
                        const DeltaOptions& options);

}  // namespace xcluster

#endif  // XCLUSTER_BUILD_DELTA_H_
