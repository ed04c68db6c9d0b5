#include "build/delta.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "synopsis/size_model.h"

namespace xcluster {

namespace {

/// Sentinel target id for the implicit count-1 self target that charges
/// value drift on childless nodes.
constexpr SynNodeId kImplicitSelf = kNoSynNode;

SynNodeId Fold(SynNodeId target, SynNodeId u, SynNodeId v) {
  return (target == u || target == v) ? u : target;
}

#ifndef NDEBUG
/// The size model and MergeSavings count one edge per (parent, child) and
/// take `parents` as exactly the nodes holding an edge to the child.
bool OneEdgePerListedParent(const GraphSynopsis& synopsis, SynNodeId child) {
  for (SynNodeId p : synopsis.node(child).parents) {
    size_t edges = 0;
    for (const SynEdge& edge : synopsis.node(p).children) {
      if (edge.target == child) ++edges;
    }
    if (edges != 1) return false;
  }
  return true;
}
#endif

double SelectivityOf(const ValueSummary& summary, const AtomicPredicate& p) {
  if (p.type == ValueType::kNone) return 1.0;  // trivial predicate
  return summary.AtomicSelectivity(p);
}

}  // namespace

void DeltaScorer::Reserve(const GraphSynopsis& synopsis) {
  if (memo_.size() < synopsis.arena_size()) {
    memo_.resize(synopsis.arena_size());
  }
}

const DeltaScorer::NodeMemo& DeltaScorer::PredicatesOf(
    const GraphSynopsis& synopsis, SynNodeId id) {
  NodeMemo& entry = memo_[id];
  if (!entry.preds_ready) {
    entry.preds_ready = true;
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

const DeltaScorer::NodeMemo& DeltaScorer::EdgesOf(
    const GraphSynopsis& synopsis, SynNodeId id) {
  NodeMemo& entry = memo_[id];
  const SynNode& node = synopsis.node(id);
  if (!entry.edges_ready || entry.edges_version != node.version) {
    entry.edges_ready = true;
    entry.edges_version = node.version;
    entry.children.clear();
    for (const SynEdge& edge : node.children) {
      entry.children.push_back({edge.target,
                                static_cast<uint32_t>(entry.children.size()),
                                edge.avg_count});
    }
    std::sort(entry.children.begin(), entry.children.end(),
              [](const SortedEdge& a, const SortedEdge& b) {
                return a.target != b.target ? a.target < b.target
                                            : a.order < b.order;
              });
    entry.parents = node.parents;
    std::sort(entry.parents.begin(), entry.parents.end());
  }
  return entry;
}

void DeltaScorer::Forget(SynNodeId id) {
  if (id < memo_.size()) memo_[id] = NodeMemo();
}

bool DeltaScorer::AddFoldedCounts(const std::vector<SortedEdge>& edges,
                                  SynNodeId u, SynNodeId v, double* sum) {
  auto run_of = [&edges](SynNodeId target) {
    auto first = std::lower_bound(
        edges.begin(), edges.end(), target,
        [](const SortedEdge& e, SynNodeId t) {
          return e.target < t;
        });
    auto last = first;
    while (last != edges.end() && last->target == target) ++last;
    return std::make_pair(first, last);
  };
  auto [x, x_end] = run_of(u);
  auto [y, y_end] = run_of(v);
  const bool any = x != x_end || y != y_end;
  while (x != x_end || y != y_end) {
    if (y == y_end || (x != x_end && x->order < y->order)) {
      *sum += (x++)->count;
    } else {
      *sum += (y++)->count;
    }
  }
  return any;
}

void DeltaScorer::MapTargets(const GraphSynopsis& synopsis, SynNodeId u,
                             SynNodeId v) {
  const std::vector<SortedEdge>& a = EdgesOf(synopsis, u).children;
  const std::vector<SortedEdge>& b = EdgesOf(synopsis, v).children;
  TargetCounts folded{u, 0.0, 0.0};
  bool has_folded = AddFoldedCounts(a, u, v, &folded.from_u);
  has_folded |= AddFoldedCounts(b, u, v, &folded.from_v);

  // The other targets: one merge of the two sorted lists, with the folded
  // target slotted in at u's place.
  auto is_folded = [u, v](const SortedEdge& edge) {
    return edge.target == u || edge.target == v;
  };
  targets_.clear();
  size_t i = 0;
  size_t j = 0;
  while (true) {
    while (i < a.size() && is_folded(a[i])) ++i;
    while (j < b.size() && is_folded(b[j])) ++j;
    SynNodeId target = kNoSynNode;
    if (i < a.size()) target = a[i].target;
    if (j < b.size()) target = std::min(target, b[j].target);
    if (has_folded && u < target) {
      targets_.push_back(folded);
      has_folded = false;
    }
    if (target == kNoSynNode) break;
    TargetCounts counts{target, 0.0, 0.0};
    for (; i < a.size() && a[i].target == target; ++i) {
      counts.from_u += a[i].count;
    }
    for (; j < b.size() && b[j].target == target; ++j) {
      counts.from_v += b[j].count;
    }
    targets_.push_back(counts);
  }
}

double DeltaScorer::MergeDelta(const GraphSynopsis& synopsis, SynNodeId u,
                               SynNodeId v) {
  return Score(synopsis, u, v).delta;
}

DeltaScorer::PairScore DeltaScorer::Score(const GraphSynopsis& synopsis,
                                          SynNodeId u, SynNodeId v) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  Reserve(synopsis);
  MapTargets(synopsis, u, v);

  // Savings: the merged node keeps one edge per mapped target, and each
  // outside parent of both u and v keeps one of its two edges.
  size_t edges_saved =
      nu.children.size() + nv.children.size() - targets_.size();
  const std::vector<SynNodeId>& pu = EdgesOf(synopsis, u).parents;
  const std::vector<SynNodeId>& pv = EdgesOf(synopsis, v).parents;
  for (size_t i = 0, j = 0; i < pu.size() && j < pv.size();) {
    if (pu[i] < pv[j]) {
      ++i;
    } else if (pv[j] < pu[i]) {
      ++j;
    } else {
      if (pu[i] != u && pu[i] != v) ++edges_saved;
      ++i;
      ++j;
    }
  }
  PairScore score;
  score.savings = SizeModel::kNodeBytes + edges_saved * SizeModel::kEdgeBytes;
  assert(score.savings == MergeSavings(synopsis, u, v));
  score.delta = Delta(synopsis, u, v);
  return score;
}

double DeltaScorer::Delta(const GraphSynopsis& synopsis, SynNodeId u,
                          SynNodeId v) {
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  const double cu = nu.count;
  const double cv = nv.count;
  const double cw = cu + cv;
  if (cw <= 0.0) return 0.0;

  // Implicit self target, last since kImplicitSelf is the largest id: one
  // "element" per extent member, charging value divergence even for
  // leaves.
  targets_.push_back({kImplicitSelf, 1.0, 1.0});

  double delta = 0.0;
  auto charge = [&](double su, double sv, double sw) {
    for (const TargetCounts& counts : targets_) {
      const double aw = (cu * counts.from_u + cv * counts.from_v) / cw;
      const double du = su * counts.from_u - sw * aw;
      const double dv = sv * counts.from_v - sw * aw;
      delta += cu * du * du + cv * dv * dv;
    }
  };
  charge(1.0, 1.0, 1.0);  // the trivial predicate

  const NodeMemo& pu = PredicatesOf(synopsis, u);
  const NodeMemo& pv = PredicatesOf(synopsis, v);
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
  std::vector<SynNodeId> ids;
  const SynNode& nu = synopsis.node(u);
  const SynNode& nv = synopsis.node(v);
  auto count_distinct = [&ids] {
    std::sort(ids.begin(), ids.end());
    return static_cast<size_t>(std::unique(ids.begin(), ids.end()) -
                               ids.begin());
  };

  // Outgoing side: duplicate mapped targets collapse into one edge each.
  for (const SynNode* node : {&nu, &nv}) {
    for (const SynEdge& edge : node->children) {
      ids.push_back(Fold(edge.target, u, v));
    }
  }
  const size_t child_edges_before = ids.size();
  const size_t child_edges_after = count_distinct();

  // Incoming side: every outside parent holds one edge to each of u and v
  // that lists it, and those edges become a single edge to the merged
  // node. Edges among u/v were already counted on the outgoing side.
  assert(OneEdgePerListedParent(synopsis, u));
  assert(OneEdgePerListedParent(synopsis, v));
  ids.clear();
  for (const SynNode* node : {&nu, &nv}) {
    for (SynNodeId p : node->parents) {
      if (p != u && p != v) ids.push_back(p);
    }
  }
  const size_t parent_edges_before = ids.size();
  const size_t parent_edges_after = count_distinct();

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
