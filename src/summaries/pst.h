#ifndef XCLUSTER_SUMMARIES_PST_H_
#define XCLUSTER_SUMMARIES_PST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xcluster {

/// Pruned Suffix Tree summarizing a STRING value distribution (Sec. 3).
///
/// The tree stores, for every substring s up to `max_depth` characters that
/// survives pruning, the number of strings in the summarized collection that
/// contain s. Substring selectivity for a query string missing from the
/// tree is estimated with the Markovian assumption of Jagadish-Ng-Srivastava
/// (PODS'99): the longest stored prefix is extended one character at a time,
/// each extension conditioned on the longest stored suffix context.
///
/// Two modifications from the paper are implemented:
///  * at least one node is retained for each symbol appearing in the
///    distribution (depth-1 nodes are never pruned), which avoids large
///    errors on negative substring queries;
///  * pruning removes leaves in order of "pruning error" — the estimation
///    error that pruning the leaf introduces for the substring it encodes —
///    while preserving the count-monotonicity invariant.
class Pst {
 public:
  Pst() = default;

  /// Builds a suffix tree over `strings` recording presence counts for all
  /// substrings of length <= `max_depth`.
  static Pst Build(const std::vector<std::string>& strings, size_t max_depth);

  /// Fuses two PSTs per Sec. 4.1: the union of their substrings with summed
  /// counts.
  static Pst Merge(const Pst& a, const Pst& b);

  /// Selectivity(s) of Merge(a, b), read off the two inputs without
  /// building the union, for a substring `s` stored in full in `a` or `b`
  /// (for instance one of either side's SampleSubstrings): the union
  /// stores s with the summed count, so no Markov step is taken. The
  /// result is bit-identical to Merge(a, b).Selectivity(s).
  static double MergedSelectivity(const Pst& a, const Pst& b,
                                  std::string_view s);

  /// Estimated number of strings containing `qs` as a substring.
  double EstimateCount(std::string_view qs) const;

  /// EstimateCount normalized by the number of summarized strings.
  double Selectivity(std::string_view qs) const;

  /// Prunes `num_leaves` leaves (st_cmprs(u, b)); depth-1 nodes are kept.
  /// Each leaf's pruning error is cached in the tree, across calls and
  /// copies, and a removal invalidates exactly the cached errors that
  /// depend on the removed node, so the leaves removed are those a full
  /// recomputation of every error per call would remove.
  void Prune(size_t num_leaves);

  /// Baseline pruning scheme for the ablation study: removes the
  /// lowest-count leaves first (the classical PST pruning-threshold rule)
  /// instead of ranking leaves by pruning error. Depth-1 nodes are kept.
  void PruneByCount(size_t num_leaves);

  /// True if a further Prune(1) can remove a node.
  bool CanPrune() const;

  /// Returns a pruned copy (for candidate-compression Delta evaluation).
  Pst Pruned(size_t num_leaves) const;

  /// Up to `cap` substrings stored in the tree, sampled deterministically
  /// across depths — the atomic STRING predicates of Sec. 4.1. When the
  /// tree holds at most `cap` substrings (or `cap` is 0) all of them are
  /// returned in preorder; otherwise the sample is a stride over them in
  /// (length, bytewise) order.
  std::vector<std::string> SampleSubstrings(size_t cap) const;

  /// Number of summarized strings.
  double total() const { return total_; }

  /// Number of tree nodes excluding the root.
  size_t node_count() const;

  /// Byte cost in the size model: 9 bytes per non-root node (symbol + count
  /// + child link) plus 4 bytes for the string count.
  size_t SizeBytes() const;

  size_t max_depth() const { return max_depth_; }

  /// One serialized PST node: (parent index into the dump, symbol, count).
  /// Parents always precede children; index -1 denotes the root.
  struct DumpNode {
    int32_t parent = -1;
    char symbol = 0;
    double count = 0.0;
  };

  /// Preorder dump of the alive nodes (excludes the root).
  std::vector<DumpNode> Dump() const;

  /// Reconstructs a PST from Dump() output plus the string count and depth.
  static Pst FromDump(const std::vector<DumpNode>& dump, double total,
                      size_t max_depth);

 private:
  friend class PstOracle;  // the uncached reference Prune of the tests

  static constexpr uint32_t kRoot = 0;

  // Fields are ordered so a node packs into 56 bytes, padding included: the
  // arena is most of a STRING summary's memory.
  struct Node {
    double count = 0.0;
    double error = 0.0;  // cached PruningError, meaningful if error_valid
    std::vector<uint32_t> children;  // indices into nodes_
    uint32_t parent = 0;
    // Intrusive list of the leaves whose cached error depends on this node
    // (see ComputePruningError), linked through next_dependent; kRoot ends
    // it.
    uint32_t first_dependent = kRoot;
    uint32_t next_dependent = kRoot;
    char symbol = 0;
    bool alive = true;
    bool error_valid = false;
  };

  uint32_t FindChild(uint32_t node, char symbol) const;
  uint32_t GetOrAddChild(uint32_t node, char symbol);

  /// Walks `s` from the root; returns the node index reached and sets
  /// `matched` to the number of characters matched.
  uint32_t WalkLongestPrefix(std::string_view s, size_t* matched) const;

  /// Count of the exact substring `s`, or -1 if not present in full.
  double LookupCount(std::string_view s) const;

  /// String encoded by `node` (root-to-node symbols).
  std::string StringOf(uint32_t node) const;

  /// Estimation error introduced by pruning leaf `node` (depth >= 2): the
  /// absolute difference between its count and EstimateCount of its string
  /// with the node gone. Sets `dependency` to the only node whose removal
  /// can change the result, or kRoot if none can.
  double ComputePruningError(uint32_t node, uint32_t* dependency) const;

  /// ComputePruningError(node) through the per-node cache.
  double PruningError(uint32_t node);

  /// Removes leaf `node` and invalidates the cached errors that depend on
  /// it.
  void RemoveLeaf(uint32_t node);

  std::vector<Node> nodes_;
  double total_ = 0.0;
  size_t max_depth_ = 0;
  size_t live_nodes_ = 0;  // excluding root
};

}  // namespace xcluster

#endif  // XCLUSTER_SUMMARIES_PST_H_
