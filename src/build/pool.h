#ifndef XCLUSTER_BUILD_POOL_H_
#define XCLUSTER_BUILD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "build/delta.h"
#include "synopsis/graph.h"

namespace xcluster {

/// One scored merge candidate in the XCLUSTERBUILD priority pool (Fig. 6).
struct MergeCandidate {
  SynNodeId u = kNoSynNode;
  SynNodeId v = kNoSynNode;
  double delta = 0.0;    ///< marginal clustering error of the merge
  size_t savings = 0;    ///< structural bytes freed by the merge
  uint32_t version_u = 0;  ///< node versions at evaluation time (staleness)
  uint32_t version_v = 0;

  /// Marginal loss per byte saved: the heap ordering key.
  double ratio() const {
    return delta / static_cast<double>(savings == 0 ? 1 : savings);
  }
};

/// Scores the pair (u, v) against the current synopsis state, recording the
/// nodes' version counters for later staleness checks.
MergeCandidate EvaluateCandidate(const GraphSynopsis& synopsis, SynNodeId u,
                                 SynNodeId v, DeltaScorer* scorer);

/// Enumerates label/type-compatible pairs among alive nodes whose level
/// (shortest path to a leaf) is <= `level_cap`, scores each, and returns the
/// `pool_max` candidates with the best (smallest) loss/savings ratio.
/// When `pair_sample_cap` > 0 and a level's pair count exceeds it, pairs are
/// stride-sampled deterministically to bound the quadratic blowup.
std::vector<MergeCandidate> BuildPool(const GraphSynopsis& synopsis,
                                      size_t pool_max, uint32_t level_cap,
                                      DeltaScorer* scorer,
                                      size_t pair_sample_cap = 0);

}  // namespace xcluster

#endif  // XCLUSTER_BUILD_POOL_H_
