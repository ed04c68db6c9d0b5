#include "trace_analysis.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace perfbench {

using Event = xcluster::telemetry::TraceRecorder::Event;

std::string LayerOf(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  const std::string head = span_name.substr(0, dot);
  if (head == "bench") {
    const size_t next = span_name.find('.', dot + 1);
    return span_name.substr(dot + 1, next == std::string::npos
                                         ? std::string::npos
                                         : next - dot - 1);
  }
  if (head == "parse") return "xml";
  if (span_name == "build.reference") return "synopsis";
  if (head == "build" || head == "compress") return "build";
  if (head == "serialize" || head == "xcluster") return "core";
  if (head == "storage") return "storage";
  if (head == "plan" || head == "estimate") return "estimate";
  if (head == "service" || head == "admission" || head == "executor") {
    return "service";
  }
  if (head == "net") return "net";
  if (head == "cluster") return "cluster";
  return "other";
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                 uint64_t lo, uint64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  uint64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += static_cast<double>(end - start);
    cursor = end;
  }
  return covered;
}

}  // namespace

LayerTimes AttributeSelfTime(const std::vector<Event>& events,
                             const std::string& root_name) {
  std::unordered_map<uint64_t, std::vector<const Event*>> by_trace;
  for (const Event& event : events) {
    if (event.trace_id != 0) by_trace[event.trace_id].push_back(&event);
  }
  LayerTimes out;
  for (const auto& [trace_id, spans] : by_trace) {
    const Event* root = nullptr;
    for (const Event* span : spans) {
      if (root_name == span->name) root = span;
    }
    if (root == nullptr) continue;
    std::unordered_map<uint64_t, const Event*> by_id;
    for (const Event* span : spans) by_id[span->span_id] = span;
    std::unordered_map<const Event*, std::vector<std::pair<uint64_t, uint64_t>>>
        children;
    std::vector<std::pair<uint64_t, uint64_t>> program;
    for (const Event* span : spans) {
      if (span == root) continue;
      auto parent = by_id.find(span->parent_span_id);
      const Event* owner = parent == by_id.end() ? root : parent->second;
      children[owner].push_back(
          {span->start_ns, span->start_ns + span->duration_ns});
      if (std::string_view(span->name).rfind("bench.", 0) != 0) {
        program.push_back({span->start_ns, span->start_ns + span->duration_ns});
      }
    }
    for (const Event* span : spans) {
      const uint64_t end = span->start_ns + span->duration_ns;
      const double covered = CoveredNs(children[span], span->start_ns, end);
      out.self_ns[LayerOf(span->name)] +=
          static_cast<double>(span->duration_ns) - covered;
    }
    out.program_ns += CoveredNs(program, root->start_ns,
                                root->start_ns + root->duration_ns);
    ++out.roots;
    out.root_ns += static_cast<double>(root->duration_ns);
  }
  return out;
}

SpanCoverage CoverageOf(const std::vector<Event>& events,
                        const std::string& outer,
                        const std::vector<std::string>& inner) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      inner_by_trace;
  for (const Event& event : events) {
    if (std::find(inner.begin(), inner.end(), event.name) != inner.end()) {
      inner_by_trace[event.trace_id].push_back(
          {event.start_ns, event.start_ns + event.duration_ns});
    }
  }
  SpanCoverage out;
  for (const Event& event : events) {
    if (outer != event.name) continue;
    out.outer_ns += static_cast<double>(event.duration_ns);
    out.covered_ns += CoveredNs(inner_by_trace[event.trace_id], event.start_ns,
                                event.start_ns + event.duration_ns);
  }
  return out;
}

}  // namespace perfbench
