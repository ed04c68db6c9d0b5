#include "summaries/pst.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <queue>
#include <utility>

namespace xcluster {

uint32_t Pst::FindChild(uint32_t node, char symbol) const {
  for (uint32_t child : nodes_[node].children) {
    if (nodes_[child].alive && nodes_[child].symbol == symbol) return child;
  }
  return kRoot;  // root is never a child; acts as "not found"
}

uint32_t Pst::GetOrAddChild(uint32_t node, char symbol) {
  uint32_t found = FindChild(node, symbol);
  if (found != kRoot) return found;
  Node child;
  child.symbol = symbol;
  child.parent = node;
  uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(child));
  nodes_[node].children.push_back(id);
  ++live_nodes_;
  return id;
}

Pst Pst::Build(const std::vector<std::string>& strings, size_t max_depth) {
  Pst pst;
  pst.max_depth_ = max_depth;
  pst.nodes_.push_back(Node{});  // root
  pst.live_nodes_ = 0;
  pst.total_ = static_cast<double>(strings.size());
  pst.nodes_[kRoot].count = pst.total_;

  // last_seen[node] = 1 + index of the last string counted at node, so a
  // substring occurring twice in one string counts once.
  std::vector<size_t> last_seen(1, 0);
  size_t stamp = 0;
  for (const std::string& s : strings) {
    ++stamp;
    for (size_t i = 0; i < s.size(); ++i) {
      uint32_t node = kRoot;
      for (size_t d = 0; d < max_depth && i + d < s.size(); ++d) {
        node = pst.GetOrAddChild(node, s[i + d]);
        if (node == last_seen.size()) last_seen.push_back(0);
        if (last_seen[node] != stamp) {
          last_seen[node] = stamp;
          pst.nodes_[node].count += 1.0;
        }
      }
    }
  }
  return pst;
}

Pst Pst::Merge(const Pst& a, const Pst& b) {
  if (a.nodes_.empty()) return b;
  if (b.nodes_.empty()) return a;

  Pst out;
  out.max_depth_ = std::max(a.max_depth_, b.max_depth_);
  out.total_ = a.total_ + b.total_;
  out.nodes_.push_back(Node{});
  out.nodes_[kRoot].count = out.total_;
  out.live_nodes_ = 0;

  // DFS over the union of the two trees. kAbsent marks a node missing on
  // one side; entries carry source node ids plus the destination parent.
  constexpr uint32_t kAbsent = static_cast<uint32_t>(-1);
  struct Frame {
    uint32_t a_node;
    uint32_t b_node;
    uint32_t out_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({kRoot, kRoot, kRoot});
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();

    // Collect the union of child symbols.
    std::vector<char> symbols;
    auto add_symbols = [&](const Pst& src, uint32_t node) {
      if (node == kAbsent) return;
      for (uint32_t child : src.nodes_[node].children) {
        if (src.nodes_[child].alive) symbols.push_back(src.nodes_[child].symbol);
      }
    };
    add_symbols(a, frame.a_node);
    add_symbols(b, frame.b_node);
    std::sort(symbols.begin(), symbols.end());
    symbols.erase(std::unique(symbols.begin(), symbols.end()), symbols.end());

    for (char symbol : symbols) {
      // FindChild returns kRoot when not found; translate to kAbsent.
      uint32_t a_child = kAbsent;
      if (frame.a_node != kAbsent) {
        uint32_t found = a.FindChild(frame.a_node, symbol);
        if (found != kRoot) a_child = found;
      }
      uint32_t b_child = kAbsent;
      if (frame.b_node != kAbsent) {
        uint32_t found = b.FindChild(frame.b_node, symbol);
        if (found != kRoot) b_child = found;
      }
      double count = 0.0;
      if (a_child != kAbsent) count += a.nodes_[a_child].count;
      if (b_child != kAbsent) count += b.nodes_[b_child].count;
      uint32_t out_node = out.GetOrAddChild(frame.out_parent, symbol);
      out.nodes_[out_node].count = count;
      stack.push_back({a_child, b_child, out_node});
    }
  }
  return out;
}

double Pst::MergedSelectivity(const Pst& a, const Pst& b,
                              std::string_view s) {
  // Mirrors Merge's empty-side shortcuts, then Selectivity/EstimateCount
  // on the union: the walk matches all of s, whose union node carries
  // 0.0 + count_a + count_b over the summed totals.
  if (a.nodes_.empty()) return b.Selectivity(s);
  if (b.nodes_.empty()) return a.Selectivity(s);
  const double total = a.total_ + b.total_;
  if (total <= 0.0) return 0.0;
  if (s.empty()) return total / total;
  double count = 0.0;
  const double count_a = a.LookupCount(s);
  if (count_a >= 0.0) count += count_a;
  const double count_b = b.LookupCount(s);
  if (count_b >= 0.0) count += count_b;
  const double p = std::min(count / total, 1.0);
  return p * total / total;
}

uint32_t Pst::WalkLongestPrefix(std::string_view s, size_t* matched) const {
  uint32_t node = kRoot;
  size_t i = 0;
  while (i < s.size()) {
    uint32_t child = FindChild(node, s[i]);
    if (child == kRoot) break;
    node = child;
    ++i;
  }
  *matched = i;
  return node;
}

double Pst::LookupCount(std::string_view s) const {
  if (nodes_.empty()) return -1.0;
  if (s.empty()) return total_;
  size_t matched = 0;
  uint32_t node = WalkLongestPrefix(s, &matched);
  if (matched != s.size()) return -1.0;
  return nodes_[node].count;
}

double Pst::EstimateCount(std::string_view qs) const {
  if (nodes_.empty() || total_ <= 0.0) return 0.0;
  if (qs.empty()) return total_;

  size_t matched = 0;
  uint32_t node = WalkLongestPrefix(qs, &matched);
  if (matched == 0) return 0.0;  // first symbol absent from distribution
  double p = nodes_[node].count / total_;

  size_t pos = matched;
  while (pos < qs.size()) {
    // Longest context: smallest j such that qs[j..pos] and qs[j..pos+1] are
    // both stored. j == pos means the empty context (plain symbol
    // frequency).
    bool stepped = false;
    size_t j_lo = (pos + 1 > max_depth_) ? (pos + 1 - max_depth_) : 0;
    for (size_t j = j_lo; j <= pos; ++j) {
      double ctx = LookupCount(qs.substr(j, pos - j));
      if (ctx <= 0.0) continue;
      double ext = LookupCount(qs.substr(j, pos - j + 1));
      if (ext < 0.0) continue;
      p *= ext / ctx;
      stepped = true;
      break;
    }
    if (!stepped) return 0.0;  // the symbol qs[pos] never occurs
    ++pos;
  }
  p = std::min(p, 1.0);
  return p * total_;
}

double Pst::Selectivity(std::string_view qs) const {
  if (total_ <= 0.0) return 0.0;
  return EstimateCount(qs) / total_;
}

std::string Pst::StringOf(uint32_t node) const {
  std::string out;
  for (uint32_t cur = node; cur != kRoot; cur = nodes_[cur].parent) {
    out += nodes_[cur].symbol;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

double Pst::ComputePruningError(uint32_t node, uint32_t* dependency) const {
  *dependency = kRoot;
  // The node's string s = s[0..d), spelled root to node.
  size_t d = 0;
  for (uint32_t cur = node; cur != kRoot; cur = nodes_[cur].parent) ++d;
  char inline_symbols[64];
  std::string long_symbols;
  char* s = inline_symbols;
  if (d > sizeof(inline_symbols)) {
    long_symbols.resize(d);
    s = long_symbols.data();
  }
  size_t at = d;
  for (uint32_t cur = node; cur != kRoot; cur = nodes_[cur].parent) {
    s[--at] = nodes_[cur].symbol;
  }

  // EstimateCount(s) with the node gone: the prefix walk stops at the
  // parent, s[0..d-1), and one Markov step extends it by s[d-1] at the
  // smallest j whose context s[j..d-1) is stored with a positive count and
  // whose extension s[j..d) is stored. j = 0 always fails, since its
  // extension is the node itself.
  //
  // Counts never change and pruning only removes nodes, so every j that
  // fails now fails forever. The step found, if any, stays the same while
  // its extension node lives, and so does its context, the extension's
  // parent: that extension is the result's only removable dependency.
  double after = 0.0;
  if (total_ > 0.0) {
    const size_t pos = d - 1;
    const size_t j_lo = d > max_depth_ ? d - max_depth_ : 0;
    double p = nodes_[nodes_[node].parent].count / total_;
    for (size_t j = std::max<size_t>(j_lo, 1); j <= pos; ++j) {
      uint32_t context = kRoot;
      size_t i = j;
      for (; i < pos; ++i) {
        context = FindChild(context, s[i]);
        if (context == kRoot) break;
      }
      if (i < pos) continue;  // context not stored
      const double context_count = j == pos ? total_ : nodes_[context].count;
      if (context_count <= 0.0) continue;
      const uint32_t extension = FindChild(context, s[pos]);
      if (extension == kRoot) continue;
      const double extension_count = nodes_[extension].count;
      if (extension_count < 0.0) continue;
      p *= extension_count / context_count;
      after = std::min(p, 1.0) * total_;
      *dependency = extension;
      break;
    }
  }
  return std::abs(nodes_[node].count - after);
}

double Pst::PruningError(uint32_t node) {
  Node& leaf = nodes_[node];
  if (!leaf.error_valid) {
    uint32_t dependency = kRoot;
    leaf.error = ComputePruningError(node, &dependency);
    leaf.error_valid = true;
    if (dependency != kRoot) {
      leaf.next_dependent = nodes_[dependency].first_dependent;
      nodes_[dependency].first_dependent = node;
    }
  }
#ifndef NDEBUG
  uint32_t unused = kRoot;
  const double fresh = ComputePruningError(node, &unused);
  assert(std::memcmp(&fresh, &leaf.error, sizeof(fresh)) == 0);
#endif
  return leaf.error;
}

void Pst::RemoveLeaf(uint32_t node) {
  Node& leaf = nodes_[node];
  leaf.alive = false;
  --live_nodes_;
  auto& siblings = nodes_[leaf.parent].children;
  siblings.erase(std::remove(siblings.begin(), siblings.end(), node),
                 siblings.end());
  for (uint32_t dependent = leaf.first_dependent; dependent != kRoot;
       dependent = nodes_[dependent].next_dependent) {
    nodes_[dependent].error_valid = false;
  }
  leaf.first_dependent = kRoot;
}

bool Pst::CanPrune() const {
  for (uint32_t id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.alive && node.children.empty() && node.parent != kRoot) {
      return true;
    }
  }
  return false;
}

void Pst::Prune(size_t num_leaves) {
  if (nodes_.empty()) return;
  using Entry = std::pair<double, uint32_t>;  // (error, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;

  auto push_if_prunable = [&](uint32_t id) {
    const Node& node = nodes_[id];
    // Depth-1 nodes are retained to keep one node per symbol.
    if (node.alive && node.children.empty() && node.parent != kRoot) {
      heap.push({PruningError(id), id});
    }
  };
  for (uint32_t id = 1; id < nodes_.size(); ++id) push_if_prunable(id);

  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [error, id] = heap.top();
    heap.pop();
    const Node& node = nodes_[id];
    if (!node.alive || !node.children.empty() || node.parent == kRoot) {
      continue;  // stale entry
    }
    // Lazy re-validation: errors drift as neighbors are pruned.
    double current = PruningError(id);
    if (!heap.empty() && current > error * 1.25 + 1e-9 &&
        current > heap.top().first) {
      heap.push({current, id});
      continue;
    }
    uint32_t parent = node.parent;
    RemoveLeaf(id);
    ++pruned;
    if (nodes_[parent].children.empty()) push_if_prunable(parent);
  }
}

void Pst::PruneByCount(size_t num_leaves) {
  if (nodes_.empty()) return;
  using Entry = std::pair<double, uint32_t>;  // (count, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  auto push_if_prunable = [&](uint32_t id) {
    const Node& node = nodes_[id];
    if (node.alive && node.children.empty() && node.parent != kRoot) {
      heap.push({node.count, id});
    }
  };
  for (uint32_t id = 1; id < nodes_.size(); ++id) push_if_prunable(id);
  size_t pruned = 0;
  while (pruned < num_leaves && !heap.empty()) {
    auto [count, id] = heap.top();
    heap.pop();
    const Node& node = nodes_[id];
    if (!node.alive || !node.children.empty() || node.parent == kRoot) {
      continue;
    }
    uint32_t parent = node.parent;
    RemoveLeaf(id);
    ++pruned;
    if (nodes_[parent].children.empty()) push_if_prunable(parent);
  }
}

Pst Pst::Pruned(size_t num_leaves) const {
  Pst copy = *this;
  copy.Prune(num_leaves);
  return copy;
}

std::vector<std::string> Pst::SampleSubstrings(size_t cap) const {
  std::vector<std::string> out;
  if (nodes_.empty()) return out;
  // Breadth-first order with each node's children visited by unsigned
  // symbol is (length, bytewise) order — std::string's operator< compares
  // as unsigned char — so the sort the stride sample needs comes free.
  std::vector<uint32_t> order = {kRoot};
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t first = order.size();
    for (uint32_t child : nodes_[order[i]].children) {
      if (nodes_[child].alive) order.push_back(child);
    }
    std::sort(order.begin() + static_cast<ptrdiff_t>(first), order.end(),
              [this](uint32_t x, uint32_t y) {
                return static_cast<unsigned char>(nodes_[x].symbol) <
                       static_cast<unsigned char>(nodes_[y].symbol);
              });
  }
  const size_t stored = order.size() - 1;  // excluding the root

  if (stored <= cap || cap == 0) {
    // Everything, in preorder (children pushed in order, popped last
    // first); `path` holds the string of the node popped last, whose
    // first depth - 1 symbols spell the next node's parent.
    out.reserve(stored);
    std::string path;
    std::vector<std::pair<uint32_t, size_t>> stack;  // (node, depth)
    stack.push_back({kRoot, 0});
    while (!stack.empty()) {
      auto [node, depth] = stack.back();
      stack.pop_back();
      if (node != kRoot) {
        path.resize(depth - 1);
        path += nodes_[node].symbol;
        out.push_back(path);
      }
      for (uint32_t child : nodes_[node].children) {
        if (nodes_[child].alive) stack.push_back({child, depth + 1});
      }
    }
    return out;
  }
  // Deterministic stride sample preserving depth diversity.
  out.reserve(cap);
  const double stride = static_cast<double>(stored) / static_cast<double>(cap);
  for (size_t k = 0; k < cap; ++k) {
    const size_t index = static_cast<size_t>(stride * static_cast<double>(k));
    out.push_back(StringOf(order[1 + index]));
  }
  return out;
}

std::vector<Pst::DumpNode> Pst::Dump() const {
  std::vector<DumpNode> dump;
  if (nodes_.empty()) return dump;
  // Preorder DFS assigning dump indices on the fly.
  std::vector<std::pair<uint32_t, int32_t>> stack;  // (node, parent dump idx)
  for (auto it = nodes_[kRoot].children.rbegin();
       it != nodes_[kRoot].children.rend(); ++it) {
    if (nodes_[*it].alive) stack.push_back({*it, -1});
  }
  while (!stack.empty()) {
    auto [node, parent] = stack.back();
    stack.pop_back();
    int32_t index = static_cast<int32_t>(dump.size());
    dump.push_back({parent, nodes_[node].symbol, nodes_[node].count});
    for (auto it = nodes_[node].children.rbegin();
         it != nodes_[node].children.rend(); ++it) {
      if (nodes_[*it].alive) stack.push_back({*it, index});
    }
  }
  return dump;
}

Pst Pst::FromDump(const std::vector<DumpNode>& dump, double total,
                  size_t max_depth) {
  Pst pst;
  pst.max_depth_ = max_depth;
  pst.total_ = total;
  pst.nodes_.push_back(Node{});
  pst.nodes_[kRoot].count = total;
  pst.live_nodes_ = 0;
  for (const DumpNode& entry : dump) {
    uint32_t parent =
        (entry.parent < 0) ? kRoot
                           : static_cast<uint32_t>(entry.parent) + 1;
    uint32_t node = pst.GetOrAddChild(parent, entry.symbol);
    pst.nodes_[node].count = entry.count;
  }
  return pst;
}

size_t Pst::node_count() const { return live_nodes_; }

size_t Pst::SizeBytes() const {
  if (nodes_.empty()) return 0;
  return 4 + live_nodes_ * 9;
}

}  // namespace xcluster
