#ifndef XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_
#define XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "estimate/compiled_twig.h"
#include "estimate/flat_synopsis.h"
#include "estimate/reach_cache.h"
#include "query/twig.h"

namespace xcluster {

/// Options for the XCluster estimation algorithm.
struct EstimateOptions {
  /// Maximum number of hops explored for the descendant axis over the
  /// synopsis graph. Synopses of recursive schemas (XMark's parlist) are
  /// cyclic, so descendant reach counts are computed as a bounded-hop DP;
  /// contributions decay geometrically in practice.
  size_t max_descendant_hops = 24;

  /// Per-hop contributions below this mass are dropped.
  double epsilon = 1e-9;

  /// Selectivity assumed for a predicate on a cluster whose value type
  /// matches the predicate kind but which carries no value summary (the
  /// reference synopsis only summarizes configured paths). The default (0)
  /// matches the paper's setting, where queries only ever filter on
  /// summarized paths; optimizer integrations that issue predicates on
  /// arbitrary paths can set the classical "magic constant" (e.g. 0.1)
  /// instead. Type-incompatible predicates always estimate 0.
  double default_selectivity = 0.0;

  /// Entry bound for the descendant reach cache (see ReachCache). 0
  /// disables caching.
  size_t reach_cache_capacity = 1 << 16;
};

/// True if a predicate of this kind can hold on values of `type` at all
/// (a range predicate can never hold on a TEXT element).
bool PredicateKindMatchesType(ValuePredicate::Kind kind, ValueType type);

/// Per-variable breakdown of an estimate (see FlatEstimator::Explain).
struct EstimateExplanation {
  struct VarStats {
    QueryVarId var = 0;
    std::string step;             ///< e.g. "//paper" ("" for the root)
    double expected_bindings = 0; ///< elements bound to this variable
    double predicate_selectivity = 1.0;  ///< combined sigma at this var
  };
  double selectivity = 0.0;  ///< the overall estimate s(Q)
  std::vector<VarStats> vars;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// Selectivity estimation over an XCluster synopsis (Sec. 5), from plans
/// compiled against its FlatSynopsis.
///
/// Implements the query-embedding framework under the generalized
/// Path-Value Independence assumption: the expected number of elements of
/// synopsis node c reached per element of node u through path u[p]/c is
/// sigma_p(u) * count(u, c). The total estimate sums, over all embeddings
/// of the query into the synopsis graph, the product of edge reach-counts
/// and predicate selectivities — computed in factored form by dynamic
/// programming over query variables, with dense `double` memo tables
/// indexed by (variable, flat node id), and the descendant reach memo in
/// a bounded LRU of shared immutable vectors (ReachCache). Every step's
/// reach goes through one walk, ForEachReach.
///
/// Summation order: the descendant DP sums sources in ascending flat id
/// and children in stored order, labeled child steps walk the
/// stable-sorted per-label index, and Explain walks per-variable masses
/// in ascending flat id — so every double is a deterministic function of
/// the synopsis and the query. tests/flat_estimator_test.cc pins that
/// order with EXPECT_EQ on doubles against a std::map-based oracle of the
/// same DP over the GraphSynopsis, across the fig8/table2 workload
/// generators.
///
/// Thread safety: any number of concurrent Estimate/Explain calls; the
/// reach cache stores pure values first-writer-wins, a reader keeps the
/// vector it holds alive past eviction, and eviction only ever forces
/// recomputation of an identical value, so results are deterministic
/// under any interleaving.
class FlatEstimator {
 public:
  /// `synopsis` must outlive the estimator.
  explicit FlatEstimator(const FlatSynopsis& synopsis,
                         EstimateOptions options = EstimateOptions());

  /// Estimated selectivity of `plan` (compiled against the same
  /// synopsis).
  double Estimate(const CompiledTwig& plan) const;

  /// Compiles `query` against synopsis() and estimates it. ftcontains
  /// terms are resolved against the synopsis' term dictionary.
  double Estimate(const TwigQuery& query) const {
    return Estimate(CompiledTwig::Compile(query, synopsis_));
  }

  /// Estimate plus an EXPLAIN-style per-variable breakdown: the expected
  /// number of elements bound to each query variable (after predicates)
  /// and the average predicate selectivity applied there — what an
  /// optimizer looks at when choosing a join order. Deterministic: nodes
  /// are walked in ascending flat id order.
  EstimateExplanation Explain(const CompiledTwig& plan) const;

  EstimateExplanation Explain(const TwigQuery& query) const {
    return Explain(CompiledTwig::Compile(query, synopsis_));
  }

  /// Combined selectivity of `plan.var(var)`'s predicates at `node` —
  /// the sigma term of the embedding DP. Public for the batch lane
  /// engine (BatchEstimator), which evaluates it per lane; the arithmetic
  /// (multiply in predicate order, short-circuit at zero) is the single
  /// implementation both paths share, which is what keeps lane-evaluated
  /// estimates bit-identical to scalar ones.
  double PredicateSelectivity(const CompiledTwig& plan, uint32_t var,
                              FlatNodeId node) const;

  /// Calls `fn(target, count)` for every synopsis node `var`'s step
  /// reaches from `source`, with the expected number of targets per
  /// source element — the one reach walk the scalar DP, Explain and the
  /// batch lane engine all share. Child steps walk the CSR range
  /// (wildcard) or the node's label run; descendant steps read the shared
  /// vector of the ReachCache, computing and publishing it on a miss. The
  /// order is fixed (CSR order, label-run order, ascending descendant
  /// targets), which is what keeps every summed double deterministic.
  /// No lock is held while `fn` runs, so it may recurse into the walk.
  template <class Fn>
  void ForEachReach(FlatNodeId source, const CompiledVar& var,
                    Fn&& fn) const {
    if (var.axis == TwigStep::Axis::kChild) {
      if (var.wildcard) {
        const size_t end = synopsis_.edges_end(source);
        for (size_t e = synopsis_.edges_begin(source); e < end; ++e) {
          fn(synopsis_.edge_target(e), synopsis_.edge_count(e));
        }
      } else {
        size_t begin = 0, end = 0;
        synopsis_.LabelRun(source, var.label, &begin, &end);
        for (size_t e = begin; e < end; ++e) {
          fn(synopsis_.sorted_edge_target(e), synopsis_.sorted_edge_count(e));
        }
      }
      return;
    }
    // Descendant axis. Unknown (never-interned) labels match nothing and
    // must not be cached: their kInvalidSymbol slot would collide with the
    // wildcard key.
    if (!var.wildcard && var.label == kInvalidSymbol) return;
    const uint64_t key = ReachCache::Key(source, var.label);
    std::shared_ptr<const ReachVector> reach = reach_cache_.Get(key);
    if (reach == nullptr) {
      auto computed = std::make_shared<ReachVector>();
      ComputeDescendantReach(source, var, computed.get());
      reach = reach_cache_.Put(key, std::move(computed));
    }
    for (const auto& [target, count] : *reach) fn(target, count);
  }

  const FlatSynopsis& synopsis() const { return synopsis_; }
  const ReachCache& reach_cache() const { return reach_cache_; }

 private:
  double TuplesPerElement(const CompiledTwig& plan, uint32_t var,
                          FlatNodeId node, double* memo) const;
  /// The bounded-hop descendant DP itself (no cache consultation):
  /// appends (target, mass) pairs in ascending target order.
  void ComputeDescendantReach(FlatNodeId source, const CompiledVar& var,
                              ReachVector* result) const;
  bool LabelMatches(FlatNodeId node, const CompiledVar& var) const {
    return var.wildcard || synopsis_.label(node) == var.label;
  }

  const FlatSynopsis& synopsis_;
  EstimateOptions options_;
  ReachCache reach_cache_;
};

}  // namespace xcluster

#endif  // XCLUSTER_ESTIMATE_FLAT_ESTIMATOR_H_
