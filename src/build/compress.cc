#include "build/compress.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/telemetry/telemetry.h"

namespace xcluster {

namespace {

/// One pending compression candidate: the node, the already-compressed
/// replacement summary, its marginal loss, and the bytes it frees.
struct CompressCandidate {
  SynNodeId node = kNoSynNode;
  ValueSummary replacement;
  double delta = 0.0;
  size_t saved = 0;
  size_t size_at_eval = 0;  ///< node's summary size when scored (staleness)

  double ratio() const {
    return delta / static_cast<double>(saved == 0 ? 1 : saved);
  }
};

struct CandidateOrder {
  bool operator()(const CompressCandidate& a,
                  const CompressCandidate& b) const {
    if (a.ratio() != b.ratio()) return a.ratio() > b.ratio();  // min-heap
    return a.node > b.node;
  }
};

/// Builds the compressed replacement for `node` (or returns false when the
/// summary cannot shrink further).
bool MakeCandidate(const GraphSynopsis& synopsis, SynNodeId node, size_t step,
                   const CompressOptions& options,
                   CompressCandidate* candidate) {
  const ValueSummary& vsumm = synopsis.node(node).vsumm;
  if (vsumm.empty() || !vsumm.CanCompress()) return false;

  ValueSummary replacement = vsumm;
  size_t saved = 0;
  if (options.voptimal_histograms && vsumm.type() == ValueType::kNumeric &&
      vsumm.numeric_kind() == NumericSummaryKind::kHistogram &&
      vsumm.histogram().bucket_count() > 1) {
    size_t buckets = vsumm.histogram().bucket_count();
    size_t target = buckets > step ? buckets - step : 1;
    *replacement.mutable_histogram() = vsumm.histogram().VOptimal(target);
    saved = vsumm.SizeBytes() - replacement.SizeBytes();
  } else {
    saved = replacement.Compress(step);
  }
  if (saved == 0) return false;

  candidate->node = node;
  candidate->delta =
      CompressionDelta(synopsis, node, replacement, options.delta);
  candidate->replacement = std::move(replacement);
  candidate->saved = saved;
  candidate->size_at_eval = vsumm.SizeBytes();
  return true;
}

}  // namespace

size_t CompressValueSummaries(GraphSynopsis* synopsis, size_t value_budget,
                              const CompressOptions& options) {
  size_t bytes = synopsis->ValueBytes();
  if (bytes <= value_budget) return bytes;

  // Auto-scale the per-application granularity so the phase finishes in
  // ~256 applications (each compression unit frees ~8 bytes under the size
  // model).
  size_t step = options.step;
  if (step == 0) {
    size_t excess = bytes - value_budget;
    step = std::max<size_t>(1, excess / (256 * 8));
  }

  // A binary heap kept with push_heap/pop_heap (the operations
  // std::priority_queue runs, so the pop order is the same), which lets
  // each popped candidate's replacement summary be moved out, not copied.
  std::vector<CompressCandidate> heap;
  auto push = [&heap](CompressCandidate&& candidate) {
    heap.push_back(std::move(candidate));
    std::push_heap(heap.begin(), heap.end(), CandidateOrder());
  };
  for (SynNodeId id : synopsis->AliveNodes()) {
    CompressCandidate candidate;
    if (MakeCandidate(*synopsis, id, step, options, &candidate)) {
      push(std::move(candidate));
    }
  }

  while (bytes > value_budget && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), CandidateOrder());
    CompressCandidate best = std::move(heap.back());
    heap.pop_back();
    SynNode& node = synopsis->node(best.node);
    if (node.vsumm.SizeBytes() != best.size_at_eval) {
      // Stale (already compressed since scoring): rescore lazily.
      XCLUSTER_COUNTER_INC("compress.rescored");
      CompressCandidate fresh;
      if (MakeCandidate(*synopsis, best.node, step, options, &fresh)) {
        push(std::move(fresh));
      }
      continue;
    }
    node.vsumm = std::move(best.replacement);
    XCLUSTER_COUNTER_INC("compress.applications");
    XCLUSTER_COUNTER_ADD("compress.bytes_saved", best.saved);
    bytes -= best.saved;
    CompressCandidate next;
    if (MakeCandidate(*synopsis, best.node, step, options, &next)) {
      push(std::move(next));
    }
  }
  return synopsis->ValueBytes();
}

}  // namespace xcluster
