// A test-only oracle for FlatEstimator: the query-embedding DP of Sec. 5
// evaluated straight over the pointer-based GraphSynopsis, with per-call
// hash memos and std::map-ordered descendant reach. It shares nothing with
// FlatEstimator beyond the option/explanation types and
// PredicateKindMatchesType, yet sums every double in the order
// FlatEstimator must reproduce — ascending node id for descendant reach
// and EXPLAIN masses, stored child order for child steps — so
// flat_estimator_test asserts EXPECT_EQ on doubles, not EXPECT_NEAR.
// Nothing is cached: reach values are pure, so recomputing them costs time
// but cannot change a result.
#ifndef XCLUSTER_TESTS_ORACLE_ESTIMATOR_H_
#define XCLUSTER_TESTS_ORACLE_ESTIMATOR_H_

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "estimate/flat_estimator.h"
#include "query/twig.h"
#include "synopsis/graph.h"

namespace xcluster {

class OracleEstimator {
 public:
  /// `synopsis` must outlive the oracle.
  explicit OracleEstimator(const GraphSynopsis& synopsis,
                           EstimateOptions options = EstimateOptions())
      : synopsis_(synopsis), options_(options) {}

  double Estimate(const TwigQuery& query) const {
    if (synopsis_.root() == kNoSynNode) return 0.0;
    const TwigQuery resolved = Resolve(query);
    if (resolved.has_unknown_terms()) return 0.0;
    std::vector<std::unordered_map<SynNodeId, double>> memo(resolved.size());
    const SynNodeId root = synopsis_.root();
    return synopsis_.node(root).count *
           TuplesPerElement(resolved, 0, root, &memo);
  }

  EstimateExplanation Explain(const TwigQuery& query) const {
    EstimateExplanation explanation;
    if (synopsis_.root() == kNoSynNode) return explanation;
    const TwigQuery resolved = Resolve(query);
    explanation.selectivity = Estimate(resolved);

    // Forward pass: expected elements bound to each variable given that
    // the root-to-variable chain matched (siblings are not multiplied in).
    std::vector<std::unordered_map<SynNodeId, double>> mass(resolved.size());
    mass[0][synopsis_.root()] = synopsis_.node(synopsis_.root()).count;
    std::vector<SynNodeId> nodes;
    for (QueryVarId var = 0; var < resolved.size(); ++var) {
      nodes.clear();
      for (const auto& [node, amount] : mass[var]) nodes.push_back(node);
      std::sort(nodes.begin(), nodes.end());
      double pre_total = 0.0;
      double post_total = 0.0;
      for (const SynNodeId node : nodes) {
        const double amount = mass[var].find(node)->second;
        pre_total += amount;
        post_total += amount * PredicateSelectivity(resolved, var, node);
      }
      EstimateExplanation::VarStats stats;
      stats.var = var;
      stats.step = var == 0 ? "" : resolved.var(var).step.ToString();
      stats.expected_bindings = post_total;
      stats.predicate_selectivity =
          pre_total > 0.0 ? post_total / pre_total : 0.0;
      explanation.vars.push_back(std::move(stats));

      for (QueryVarId child : resolved.var(var).children) {
        for (const SynNodeId node : nodes) {
          const double amount = mass[var].find(node)->second *
                                PredicateSelectivity(resolved, var, node);
          if (amount <= 0.0) continue;
          for (const auto& [target, count] :
               Reach(node, resolved.var(child).step)) {
            mass[child][target] += amount * count;
          }
        }
      }
    }
    return explanation;
  }

 private:
  TwigQuery Resolve(const TwigQuery& query) const {
    TwigQuery resolved = query;
    if (resolved.has_term_predicates() && !resolved.terms_resolved() &&
        synopsis_.term_dictionary() != nullptr) {
      resolved.ResolveTerms(*synopsis_.term_dictionary());
    }
    return resolved;
  }

  bool LabelMatches(SynNodeId node, const TwigStep& step) const {
    return step.wildcard ||
           synopsis_.labels().Get(synopsis_.node(node).label) == step.label;
  }

  /// Expected elements of each target reached per element of `source`.
  std::vector<std::pair<SynNodeId, double>> Reach(SynNodeId source,
                                                  const TwigStep& step) const {
    std::vector<std::pair<SynNodeId, double>> out;
    if (step.axis == TwigStep::Axis::kChild) {
      for (const SynEdge& edge : synopsis_.node(source).children) {
        if (LabelMatches(edge.target, step)) {
          out.push_back({edge.target, edge.avg_count});
        }
      }
      return out;
    }
    // Descendant axis: bounded-hop sparse DP in ascending node order.
    std::map<SynNodeId, double> frontier{{source, 1.0}};
    std::map<SynNodeId, double> reached;
    for (size_t hop = 0; hop < options_.max_descendant_hops; ++hop) {
      std::map<SynNodeId, double> next;
      for (const auto& [node, mass] : frontier) {
        for (const SynEdge& edge : synopsis_.node(node).children) {
          const double contribution = mass * edge.avg_count;
          if (contribution < options_.epsilon) continue;
          next[edge.target] += contribution;
        }
      }
      if (next.empty()) break;
      for (const auto& [node, mass] : next) {
        if (LabelMatches(node, step)) reached[node] += mass;
      }
      frontier = std::move(next);
    }
    out.assign(reached.begin(), reached.end());
    return out;
  }

  double PredicateSelectivity(const TwigQuery& query, QueryVarId var,
                              SynNodeId node) const {
    const SynNode& syn_node = synopsis_.node(node);
    double selectivity = 1.0;
    for (const ValuePredicate& pred : query.var(var).predicates) {
      if (syn_node.vsumm.empty()) {
        selectivity *= PredicateKindMatchesType(pred.kind, syn_node.type)
                           ? options_.default_selectivity
                           : 0.0;
      } else {
        selectivity *= syn_node.vsumm.Selectivity(pred);
      }
      if (selectivity == 0.0) break;
    }
    return selectivity;
  }

  /// Expected binding tuples of the sub-twig rooted at `var` per element
  /// of `node` bound to it.
  double TuplesPerElement(
      const TwigQuery& query, QueryVarId var, SynNodeId node,
      std::vector<std::unordered_map<SynNodeId, double>>* memo) const {
    auto& cache = (*memo)[var];
    if (auto it = cache.find(node); it != cache.end()) return it->second;
    double result = PredicateSelectivity(query, var, node);
    if (result > 0.0) {
      for (QueryVarId child : query.var(var).children) {
        double sum = 0.0;
        for (const auto& [target, count] :
             Reach(node, query.var(child).step)) {
          sum += count * TuplesPerElement(query, child, target, memo);
        }
        result *= sum;
        if (result == 0.0) break;
      }
    }
    cache.emplace(node, result);
    return result;
  }

  const GraphSynopsis& synopsis_;
  EstimateOptions options_;
};

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_ORACLE_ESTIMATOR_H_
