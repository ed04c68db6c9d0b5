// A test-only oracle for Pst::Prune: the st_cmprs leaf pruning without the
// pruning-error cache. Every call recomputes each leaf's error as a full
// EstimateCount of the leaf's string with the leaf marked dead, the way
// Pst::Prune did before errors were cached. It shares the tree, the Markov
// estimator and RemoveLeaf with Pst, so a tree it prunes stays valid for
// Pst::Prune, and differential tests can compare the two bit for bit.
#ifndef XCLUSTER_TESTS_PST_ORACLE_H_
#define XCLUSTER_TESTS_PST_ORACLE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "summaries/pst.h"

namespace xcluster {

class PstOracle {
 public:
  static void Prune(Pst* pst, size_t num_leaves) {
    if (pst->nodes_.empty()) return;
    using Entry = std::pair<double, uint32_t>;  // (error, node)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    auto prunable = [pst](uint32_t id) {
      const Pst::Node& node = pst->nodes_[id];
      return node.alive && node.children.empty() && node.parent != Pst::kRoot;
    };
    for (uint32_t id = 1; id < pst->nodes_.size(); ++id) {
      if (prunable(id)) heap.push({PruningError(pst, id), id});
    }
    size_t pruned = 0;
    while (pruned < num_leaves && !heap.empty()) {
      auto [error, id] = heap.top();
      heap.pop();
      if (!prunable(id)) continue;  // stale entry
      const double current = PruningError(pst, id);
      if (!heap.empty() && current > error * 1.25 + 1e-9 &&
          current > heap.top().first) {
        heap.push({current, id});
        continue;
      }
      const uint32_t parent = pst->nodes_[id].parent;
      pst->RemoveLeaf(id);
      ++pruned;
      if (prunable(parent)) heap.push({PruningError(pst, parent), parent});
    }
  }

 private:
  static double PruningError(Pst* pst, uint32_t node) {
    const double before = pst->nodes_[node].count;
    const std::string s = pst->StringOf(node);
    pst->nodes_[node].alive = false;
    const double after = pst->EstimateCount(s);
    pst->nodes_[node].alive = true;
    return std::abs(before - after);
  }
};

}  // namespace xcluster

#endif  // XCLUSTER_TESTS_PST_ORACLE_H_
