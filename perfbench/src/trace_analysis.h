// Self-time attribution over the spans of a traced run. Spans that share a
// trace id form one request; the benchmark's own span around the public
// call it made (the pipeline, or one client batch) is the request's root.
#ifndef PERFBENCH_TRACE_ANALYSIS_H_
#define PERFBENCH_TRACE_ANALYSIS_H_

#include <map>
#include <string>
#include <vector>

#include "common/telemetry/trace.h"

namespace perfbench {

/// The module a span belongs to: "bench.<layer>.<call>" for the
/// benchmark's own spans, the name's first segment mapped onto the source
/// tree's modules for the program's spans.
std::string LayerOf(const std::string& span_name);

struct LayerTimes {
  /// Summed self time per layer, nanoseconds. A span's self time is its
  /// duration minus the part of it its children cover.
  std::map<std::string, double> self_ns;
  size_t roots = 0;        ///< requests found (root spans)
  double root_ns = 0.0;    ///< summed root durations
  /// Summed root time covered by the program's own spans (every span of
  /// the request not named "bench.*").
  double program_ns = 0.0;
};

/// Attributes every request rooted at a span named `root_name`. A span
/// whose parent is not in the request (it ran on another thread or in
/// another server of the fleet) is attached to the root.
LayerTimes AttributeSelfTime(
    const std::vector<xcluster::telemetry::TraceRecorder::Event>& events,
    const std::string& root_name);

/// Summed duration of the spans named `outer`, and the part of it covered
/// by spans of the same request named one of `inner`.
struct SpanCoverage {
  double outer_ns = 0.0;
  double covered_ns = 0.0;
};

SpanCoverage CoverageOf(
    const std::vector<xcluster::telemetry::TraceRecorder::Event>& events,
    const std::string& outer, const std::vector<std::string>& inner);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_ANALYSIS_H_
