#include "build/delta.h"

#include <algorithm>
#include <map>

#include "synopsis/size_model.h"

namespace xcluster {

namespace {

/// Sentinel target id for the implicit count-1 self target that charges
/// value drift on childless nodes.
constexpr SynNodeId kImplicitSelf = kNoSynNode;

/// Per-target child counts of the two merge inputs, with u/v folded onto
/// the future merged node (represented by `folded`).
struct TargetCounts {
  double from_u = 0.0;
  double from_v = 0.0;
};

double SelectivityOf(const ValueSummary& summary, const AtomicPredicate& p) {
  if (p.type == ValueType::kNone) return 1.0;  // trivial predicate
  return summary.AtomicSelectivity(p);
}

}  // namespace

const DeltaScorer::NodePredicates& DeltaScorer::PredicatesOf(
    const GraphSynopsis& synopsis, SynNodeId id) {
  NodePredicates& entry = memo_[id];
  if (!entry.ready) {
    entry.ready = true;
    if (options_.use_value_summaries && options_.atomic_pred_cap != 0) {
      const ValueSummary& summary = synopsis.node(id).vsumm;
      const size_t half = (options_.atomic_pred_cap + 1) / 2;
      entry.preds = summary.AtomicPredicates(half);
      entry.sigma.reserve(entry.preds.size());
      for (const AtomicPredicate& p : entry.preds) {
        entry.sigma.push_back(summary.AtomicSelectivity(p));
      }
    }
  }
  return entry;
}

void DeltaScorer::Forget(SynNodeId id) {
  if (id < memo_.size()) memo_[id] = NodePredicates();
}

double DeltaScorer::MergeDelta(const GraphSynopsis& synopsis, SynNodeId u,
                               SynNodeId v) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  const double cu = nu.count;
  const double cv = nv.count;
  const double cw = cu + cv;
  if (cw <= 0.0) return 0.0;

  // Child targets with u/v folded onto the merged node.
  std::map<SynNodeId, TargetCounts> targets;
  for (const SynEdge& edge : nu.children) {
    SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
    targets[t].from_u += edge.avg_count;
  }
  for (const SynEdge& edge : nv.children) {
    SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
    targets[t].from_v += edge.avg_count;
  }
  // Implicit self target: one "element" per extent member, charging value
  // divergence even for leaves.
  targets[kImplicitSelf] = {1.0, 1.0};

  double delta = 0.0;
  auto charge = [&](double su, double sv, double sw) {
    for (const auto& [target, counts] : targets) {
      const double aw = (cu * counts.from_u + cv * counts.from_v) / cw;
      const double du = su * counts.from_u - sw * aw;
      const double dv = sv * counts.from_v - sw * aw;
      delta += cu * du * du + cv * dv * dv;
    }
  };
  charge(1.0, 1.0, 1.0);  // the trivial predicate

  if (memo_.size() < synopsis.arena_size()) {
    memo_.resize(synopsis.arena_size());
  }
  const NodePredicates& pu = PredicatesOf(synopsis, u);
  const NodePredicates& pv = PredicatesOf(synopsis, v);
  if (pu.preds.empty() && pv.preds.empty()) return delta;

  const ValueSummary& a = nu.vsumm;
  const ValueSummary& b = nv.vsumm;
  const MergedSelectivity merged_sigma(a, cu, b, cv);

  // u's predicates first, then v's, at most atomic_pred_cap in all.
  size_t left = options_.atomic_pred_cap;
  for (size_t i = 0; i < pu.preds.size() && left > 0; ++i, --left) {
    const AtomicPredicate& p = pu.preds[i];
    charge(pu.sigma[i], b.AtomicSelectivity(p), merged_sigma(p));
  }
  for (size_t i = 0; i < pv.preds.size() && left > 0; ++i, --left) {
    const AtomicPredicate& p = pv.preds[i];
    charge(a.AtomicSelectivity(p), pv.sigma[i], merged_sigma(p));
  }
  return delta;
}

size_t MergeSavings(const GraphSynopsis& synopsis, SynNodeId u, SynNodeId v) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);

  // Outgoing side: duplicate mapped targets collapse into one edge each.
  size_t child_edges_before = nu.children.size() + nv.children.size();
  std::map<SynNodeId, int> mapped_targets;
  for (const SynNode* node : {&nu, &nv}) {
    for (const SynEdge& edge : node->children) {
      SynNodeId t = (edge.target == u || edge.target == v) ? u : edge.target;
      ++mapped_targets[t];
    }
  }
  size_t child_edges_after = mapped_targets.size();

  // Incoming side: every outside parent's edges to {u, v} are replaced by a
  // single edge to the merged node. Edges among u/v were already counted on
  // the outgoing side.
  std::vector<SynNodeId> parent_ids;
  for (const SynNode* node : {&nu, &nv}) {
    for (SynNodeId p : node->parents) {
      if (p == u || p == v) continue;
      if (std::find(parent_ids.begin(), parent_ids.end(), p) ==
          parent_ids.end()) {
        parent_ids.push_back(p);
      }
    }
  }
  size_t parent_edges_before = 0;
  for (SynNodeId p : parent_ids) {
    for (const SynEdge& edge : synopsis.node(p).children) {
      if (edge.target == u || edge.target == v) ++parent_edges_before;
    }
  }
  size_t parent_edges_after = parent_ids.size();

  size_t edges_saved = (child_edges_before - child_edges_after) +
                       (parent_edges_before - parent_edges_after);
  return SizeModel::kNodeBytes + edges_saved * SizeModel::kEdgeBytes;
}

double CompressionDelta(const GraphSynopsis& synopsis, SynNodeId u,
                        const ValueSummary& compressed,
                        const DeltaOptions& options) {
  const SynNode& nu = synopsis.node(u);
  const double cu = nu.count;
  if (cu <= 0.0) return 0.0;

  std::vector<AtomicPredicate> preds;
  preds.emplace_back();  // trivial
  if (options.use_value_summaries) {
    std::vector<AtomicPredicate> own =
        nu.vsumm.AtomicPredicates(options.atomic_pred_cap);
    preds.insert(preds.end(), own.begin(), own.end());
  }

  double delta = 0.0;
  for (const AtomicPredicate& p : preds) {
    const double before = SelectivityOf(nu.vsumm, p);
    const double after = SelectivityOf(compressed, p);
    const double diff = before - after;
    // Child targets plus the implicit self target.
    double weight = 1.0;  // implicit self: count 1
    for (const SynEdge& edge : nu.children) {
      weight += edge.avg_count * edge.avg_count;
    }
    delta += cu * diff * diff * weight;
  }
  return delta;
}

}  // namespace xcluster
