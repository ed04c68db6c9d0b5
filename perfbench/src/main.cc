// xbench: the end-to-end benchmark of the XCluster system.
//
//   xbench --workload build|optimizer|advisor --seed N
//          --seconds S --trace 0|1 [--quick] [--work-dir DIR]
//
// Every input is generated: each workload summarizes one fixed document,
// and everything sampled from it comes from --seed. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The line before it is a report (environment stamp, serving figures,
// workload properties, tracing overhead). Any output that differs from the
// in-process reference makes `correct` false and the exit code 1.
// perfbench/README.md documents the workloads and the meaning of every
// metric on each of them.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/telemetry/trace.h"
#include "estimate/flat_synopsis.h"
#include "net/client.h"
#include "pipeline.h"
#include "service/synopsis_store.h"
#include "storage/xcsf_mmap_view.h"
#include "synopsis/reference.h"
#include "xml/parser.h"
#include "trace_analysis.h"
#include "traffic.h"
#include "util.h"

namespace perfbench {
namespace {

using xcluster::JsonValue;
using xcluster::Result;
using xcluster::Status;
namespace net = xcluster::net;
namespace telemetry = xcluster::telemetry;

constexpr size_t kPlanCacheCapacity = 4096;     // ServiceOptions default
constexpr size_t kReachCacheCapacity = 65536;   // EstimateOptions default
// Set-ups timed per run: a serving set-up takes about 0.25 s, the build
// workload's about 0.05 s, which needs more repeats for a steady median.
// Half are timed before the measurement and half after it, so that one
// slow stretch of a shared machine cannot cover them all.
constexpr size_t kServingSetupRepeats = 13;
constexpr size_t kBuildSetupRepeats = 25;
// Every workload summarizes one fixed document, the XMark generator's own
// default (seed 7; the build document is the paper-scale instance of
// 24,426 elements). --seed drives everything sampled from it: ground-truth
// queries, traffic, predicate constants. A document drawn per seed would
// make the error and the build time vary with the document far beyond any
// bound a change could be judged against.
constexpr uint64_t kDocumentSeed = 7;
constexpr size_t kBuildRepeats = 3;  // pipeline runs per untraced build run
constexpr size_t kSlices = 20;  // at least; serving windows use 0.5-s slices
// The stream connection the fixed batches behind serve_cpu_us_per_query are
// drawn from; the closed-loop connections draw from 0, 1 (untraced) and
// 1000, 1001 (traced).
constexpr uint64_t kServeConn = 500;
// Passes of the fixed batches through EstimateBatch in-process, for the
// engine's batch shape and the per-layer service time.
constexpr size_t kInProcessPasses = 3;
// Share of a call that the program's own spans must account for in the
// traced build (the benchmark's stated tolerance is 5%).
constexpr double kTraceTolerance = 0.05;
// The optimizer's working set: distinct twigs, drawn Zipf-skewed so hot
// subexpressions repeat inside a batch.
constexpr size_t kOptimizerPool = 512;
constexpr double kOptimizerZipf = 1.0;
constexpr size_t kLayerRepeats = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string work_dir = ".";
};

/// Input sizes; --quick shrinks everything for the self-check.
struct Sizes {
  double build_scale = 0.5;
  double serve_scale = 0.25;
  // The error metric is heavy-tailed: 8000 queries keep its spread across
  // query seeds under 10%.
  size_t truth_queries = 8000;
  size_t advisor_skeletons = 200;
  size_t advisor_batch = 1024;
  size_t optimizer_batch = 16;
  double warmup_s = 0.5;
  size_t probe_batches = 200;
  // The fixed batches behind serve_cpu_us_per_query: 8192 queries a pass on
  // the serving workloads, which on advisor is twice the plan cache's
  // capacity; on build, the first 256 16-query batches of its ground-truth
  // queries (each costs about 4x more there).
  size_t build_serve_batches = 256;
  size_t optimizer_serve_batches = 512;
  size_t advisor_serve_batches = 8;
  size_t serve_min_passes = 10;
  /// Serving workloads send the fixed batches for the whole --seconds;
  /// build, whose --seconds go to the pipeline, for this long.
  double build_serve_s = 8.0;
  /// Length of each closed-loop traffic window (reported, not declared).
  double traffic_window_s = 3.0;
  /// Bstr of the serving snapshot. At scale 0.25 the default 50 KB needs no
  /// merge at all, which would serve the uncompressed reference synopsis.
  size_t serve_structural_budget = 20 * 1024;
  size_t build_structural_budget = 50 * 1024;
};

Sizes SizesFor(const Args& args) {
  Sizes s;
  if (args.quick) {
    s.build_scale = 0.05;
    s.serve_scale = 0.03;
    s.truth_queries = 100;
    s.advisor_skeletons = 50;
    s.advisor_batch = 64;
    s.warmup_s = 0.1;
    s.probe_batches = 10;
    s.build_serve_batches = 16;
    s.optimizer_serve_batches = 16;
    s.advisor_serve_batches = 2;
    s.serve_min_passes = 2;
    s.build_serve_s = 0.1;
    s.traffic_window_s = 0.5;
    s.serve_structural_budget = 4 * 1024;
    s.build_structural_budget = 8 * 1024;
  }
  return s;
}

/// What one run reports.
struct Run {
  SpeedCalibration speed;
  MetricSink e2e;
  MetricSink layer;
  JsonValue report = JsonValue::Object();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures

  void Fail(const std::string& what) {
    std::fprintf(stderr, "xbench: CHECK FAILED: %s\n", what.c_str());
    errors.push_back(what);
  }
};

JsonValue Num(double v) { return JsonValue::Number(v); }

std::string ImagePath(const Args& args, const std::string& tag) {
  return args.work_dir + "/" + args.workload + "-" + tag + "-" +
         std::to_string(getpid()) + ".xcsf";
}

/// Installs a span recorder for the traced phase and writes its spans out
/// when the phase ends.
class TracedPhase {
 public:
  TracedPhase() { telemetry::InstallGlobalTraceRecorder(&recorder_); }
  ~TracedPhase() { Stop(); }
  void Stop() {
    if (active_) telemetry::InstallGlobalTraceRecorder(nullptr);
    active_ = false;
  }
  const telemetry::TraceRecorder& recorder() const { return recorder_; }

 private:
  telemetry::TraceRecorder recorder_;
  bool active_ = true;
};

/// Self time per layer, per traced request, in the report; the share of
/// the requests' wall time the program's own spans cover as a metric.
void ReportSelfTimes(const LayerTimes& times, Run* run) {
  const double roots = std::max<double>(1.0, static_cast<double>(times.roots));
  JsonValue self = JsonValue::Object();
  for (const auto& [layer, ns] : times.self_ns) {
    self.members()[layer] = Num(ns / roots / 1e6);
  }
  JsonValue trace = JsonValue::Object();
  trace.members()["self_ms_per_request"] = std::move(self);
  trace.members()["requests"] = Num(static_cast<double>(times.roots));
  trace.members()["request_ms"] = Num(times.root_ns / roots / 1e6);
  run->report.members()["trace_attribution"] = std::move(trace);
  run->layer.Set("trace.attributed_share",
                 Ratio(times.program_ns, times.root_ns), "ratio");
  run->layer.Set("trace.requests", static_cast<double>(times.roots), "count");
}

void WriteTrace(const Args& args, const telemetry::TraceRecorder& recorder,
                Run* run) {
  const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  Status written = recorder.WriteFile(path);
  run->report.members()["trace_file"] =
      JsonValue::String(written.ok() ? path : written.ToString());
}

/// Median wall time of `repeats` calls of `fn`, milliseconds.
template <typename Fn>
double MedianMs(size_t repeats, Fn fn) {
  std::vector<double> ms;
  for (size_t i = 0; i < repeats; ++i) {
    const uint64_t t0 = NowNs();
    fn();
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(ms);
}

/// Layers every workload times around one public call on its own image:
/// mapping it, adopting it from memory, and installing it from the wire.
void ReportImageLayers(const std::string& path, const std::string& bytes,
                       Run* run) {
  bool ok = true;
  run->layer.Set("storage.xcsf_open_ms", MedianMs(kLayerRepeats, [&] {
                   ok &= xcluster::storage::XcsfMmapView::Open(path).ok();
                 }), "ms");
  std::vector<std::string> copies(kLayerRepeats, bytes);
  size_t next = 0;
  run->layer.Set("storage.xcsf_adopt_ms", MedianMs(kLayerRepeats, [&] {
                   ok &= xcluster::storage::XcsfMmapView::Adopt(
                             std::move(copies[next++])).ok();
                 }), "ms");
  xcluster::SynopsisStore store;
  run->layer.Set("service.install_ms", MedianMs(kLayerRepeats, [&] {
                   ok &= store.InstallFromWire(kCollection, bytes, "bench").ok();
                 }), "ms");
  if (!ok) run->Fail("a layer call on the synopsis image failed");
}

/// Per-layer numbers of the offline pipeline, from the benchmark's own
/// stage timings and the build.* histograms.
void ReportPipelineLayers(const std::vector<StageTimes>& stages,
                          const xcluster::BuildStats& stats,
                          const RegistryMark& before,
                          const RegistryMark& after, Run* run) {
  auto median_of = [&](double StageTimes::*field) {
    std::vector<double> v;
    for (const StageTimes& t : stages) v.push_back(t.*field);
    return Median(v);
  };
  run->layer.Set("xml.parse_s", median_of(&StageTimes::parse), "s");
  run->layer.Set("synopsis.reference_s", median_of(&StageTimes::reference),
                 "s");
  run->layer.Set("synopsis.reference_nodes",
                 static_cast<double>(stats.reference_nodes), "count");
  run->layer.Set("core.xcs_encode_ms", median_of(&StageTimes::xcs_encode) * 1e3,
                 "ms");
  run->layer.Set("storage.xcsf_encode_ms",
                 median_of(&StageTimes::xcsf_encode) * 1e3, "ms");
  const double builds =
      static_cast<double>(CounterDelta(before, after, "build.builds"));
  auto per_build_s = [&](const char* histogram) {
    const double sum_ns =
        HistogramMeanNs(before, after, histogram) *
        static_cast<double>(HistogramCount(before, after, histogram));
    return Ratio(sum_ns, builds) / 1e9;
  };
  const double phase1_s = per_build_s("build.phase1_ns");
  run->layer.Set("build.phase1_s", phase1_s, "s");
  run->layer.Set("build.phase2_s", per_build_s("build.phase2_ns"), "s");
  run->layer.Set("build.pool_rebuild_s", per_build_s("build.pool_rebuild_ns"),
                 "s");
  const double candidates = static_cast<double>(stats.candidates_evaluated);
  run->layer.Set("build.candidates_evaluated", candidates, "count");
  run->layer.Set("build.merges_applied",
                 static_cast<double>(stats.merges_applied), "count");
  run->layer.Set("build.pool_rebuilds",
                 static_cast<double>(stats.pool_rebuilds), "count");
  run->layer.Set("build.value_bytes_compressed",
                 static_cast<double>(stats.value_bytes_compressed), "bytes");
  run->layer.Set("build.us_per_candidate", Ratio(phase1_s * 1e6, candidates),
                 "us");
  run->layer.Set("build.merge_yield",
                 Ratio(static_cast<double>(stats.merges_applied), candidates),
                 "ratio");
}

void ReportQueryCost(const QueryCost& cost, size_t queries, Run* run) {
  const double n = static_cast<double>(queries);
  run->layer.Set("query.parse_us", Ratio(cost.parse_ns, n) / 1e3, "us");
  run->layer.Set("estimate.compile_us", Ratio(cost.compile_ns, n) / 1e3, "us");
  run->layer.Set("estimate.dp_us", Ratio(cost.dp_ns, n) / 1e3, "us");
}

/// The cache and admission counters of the workload's own traffic.
void ReportMainCounters(const RegistryMark& before, const RegistryMark& after,
                        Run* run) {
  auto ratio = [&](const char* hits, const char* misses) {
    const double h = static_cast<double>(CounterDelta(before, after, hits));
    const double m = static_cast<double>(CounterDelta(before, after, misses));
    return Ratio(h, h + m);
  };
  run->layer.Set("estimate.plan_cache_hit_ratio",
                 ratio("estimator.plan_cache.hits",
                       "estimator.plan_cache.misses"),
                 "ratio");
  run->layer.Set("estimate.reach_cache_hit_ratio",
                 ratio("estimator.reach_cache.hits",
                       "estimator.reach_cache.misses"),
                 "ratio");
  run->layer.Set(
      "service.sheds",
      static_cast<double>(
          CounterDelta(before, after, "service.admission.shed.quota") +
          CounterDelta(before, after, "service.admission.shed.deadline")),
      "count");
  run->layer.Set("cluster.retries",
                 static_cast<double>(
                     CounterDelta(before, after, "cluster.retries")),
                 "count");
  run->layer.Set("cluster.failovers",
                 static_cast<double>(
                     CounterDelta(before, after, "cluster.failovers")),
                 "count");
}

/// Net and service layer numbers of traffic sent straight to a replica.
void ReportDirectLayers(const RegistryMark& before, const RegistryMark& after,
                        const std::vector<double>& rtt_ms, uint64_t queries,
                        Run* run) {
  const double server_us =
      HistogramMeanNs(before, after, "net.request_latency_ns") / 1e3;
  const double rtt_us =
      Ratio(std::accumulate(rtt_ms.begin(), rtt_ms.end(), 0.0),
            static_cast<double>(rtt_ms.size())) *
      1e3;
  run->layer.Set("net.server_us", server_us, "us");
  run->layer.Set("net.reactor_wait_us", rtt_us - server_us, "us");
  run->layer.Set(
      "net.bytes_per_query",
      Ratio(static_cast<double>(CounterDelta(before, after, "net.bytes.rx") +
                                CounterDelta(before, after, "net.bytes.tx")),
            static_cast<double>(queries)),
      "bytes");
  run->layer.Set("service.queue_wait_us",
                 HistogramMeanNs(before, after, "service.queue_wait_ns") / 1e3,
                 "us");
}

/// The end-to-end serving cost: server-side CPU time per query over the
/// fixed batches (ServePasses).
void ReportServeCost(const ServeResult& serve, Run* run) {
  run->e2e.Set("serve_cpu_us_per_query", serve.cpu_us_per_query, "us");
  JsonValue r = JsonValue::Object();
  r.members()["passes"] = Num(static_cast<double>(serve.passes));
  r.members()["queries"] = Num(static_cast<double>(serve.queries));
  r.members()["wall_us_per_query"] = Num(serve.wall_us_per_query);
  run->report.members()["fixed_batches"] = std::move(r);
  run->attempted += serve.queries;
  run->failed += serve.failed;
  if (!serve.error.empty()) {
    std::fprintf(stderr, "xbench: transport error: %s\n", serve.error.c_str());
  }
  if (serve.mismatches > 0) {
    run->Fail(std::to_string(serve.mismatches) +
              " served estimates differ from FlatEstimator on the same image");
  }
}

/// Per-layer figures of the fixed batches sent in-process.
void ReportReplay(const ReplayResult& replay, Run* run) {
  run->layer.Set("service.inproc_batch_us", Median(replay.batch_us), "us");
  run->layer.Set("estimate.lanes_per_group",
                 Ratio(static_cast<double>(replay.lanes),
                       static_cast<double>(replay.groups)),
                 "ratio");
  run->layer.Set("estimate.dedup_ratio",
                 Ratio(static_cast<double>(replay.lanes),
                       static_cast<double>(replay.slots)),
                 "ratio");
}

/// Checks the in-process passes of the fixed batches.
void CheckReplay(const ReplayResult& replay, Run* run) {
  run->attempted += replay.slots * kInProcessPasses;
  if (replay.mismatches > 0) {
    run->Fail(std::to_string(replay.mismatches) +
              " in-process batch results differ from FlatEstimator");
  }
}

/// What the query stream of the run looked like (satellite report: every
/// claim that depends on repetition cites these).
void ReportProperties(const StreamProperties& props, double lanes_per_batch,
                      Run* run) {
  const double distinct = static_cast<double>(props.distinct);
  const double queries = static_cast<double>(props.queries);
  JsonValue p = JsonValue::Object();
  p.members()["queries"] = Num(queries);
  p.members()["distinct_queries"] = Num(distinct);
  p.members()["repeat_share"] = Num(1.0 - Ratio(distinct, queries));
  p.members()["distinct_lanes_per_batch"] = Num(lanes_per_batch);
  p.members()["skeletons"] = Num(static_cast<double>(props.skeletons));
  p.members()["queries_per_skeleton"] =
      Num(Ratio(distinct, static_cast<double>(props.skeletons)));
  p.members()["distinct_per_plan_cache_capacity"] =
      Num(distinct / kPlanCacheCapacity);
  p.members()["distinct_per_reach_cache_capacity"] =
      Num(distinct / kReachCacheCapacity);
  run->layer.Set("workload.distinct_queries", distinct, "count");
  run->layer.Set("workload.repeat_share", 1.0 - Ratio(distinct, queries),
                 "ratio");
  run->layer.Set("workload.lanes_per_batch", lanes_per_batch, "count");
  run->layer.Set("workload.queries_per_skeleton",
                 Ratio(distinct, static_cast<double>(props.skeletons)), "count");
  run->layer.Set("workload.distinct_per_plan_cache", distinct / kPlanCacheCapacity,
                 "ratio");
  run->layer.Set("workload.distinct_per_reach_cache",
                 distinct / kReachCacheCapacity, "ratio");
  run->report.members()["workload_properties"] = std::move(p);
}

/// Routed-vs-direct probe on a fresh two-replica fleet behind a router:
/// gives every workload the router hop and, where the workload's own
/// traffic does not cross a layer, that layer's numbers on the workload's
/// own image and queries.
struct Probe {
  RegistryMark routed_before, routed_after, direct_before, direct_after;
  std::vector<double> routed_ms, direct_ms, hop_us;
  uint64_t direct_queries = 0;
};

Probe RunProbe(const std::string& image, const std::vector<std::string>& texts,
               size_t batches, Run* run) {
  Probe probe;
  Fleet::Options options;
  options.replicas = 2;
  options.router = true;
  Result<std::unique_ptr<Fleet>> started = Fleet::Start(options);
  if (!started.ok()) {
    run->Fail("probe fleet: " + started.status().ToString());
    return probe;
  }
  Fleet& fleet = *started.value();
  Result<uint64_t> pushed = PushImage(fleet.entry_port(), image);
  if (!pushed.ok()) {
    run->Fail("probe install: " + pushed.status().ToString());
    return probe;
  }
  Result<net::NetClient> routed =
      net::NetClient::Connect("127.0.0.1", fleet.entry_port());
  Result<net::NetClient> direct = net::NetClient::Connect(
      "127.0.0.1", fleet.replica_port(fleet.primary()));
  if (!routed.ok() || !direct.ok()) {
    run->Fail("probe connect failed");
    return probe;
  }
  std::vector<std::vector<std::string>> list(batches);
  for (size_t b = 0; b < batches; ++b) {
    for (size_t i = 0; i < 16; ++i) {
      list[b].push_back(texts[(b * 16 + i) % texts.size()]);
    }
  }
  std::vector<net::BatchReplyFrame> direct_replies(batches);
  auto send = [&](net::NetClient& client, std::vector<double>* ms,
                  std::vector<net::BatchReplyFrame>* keep) {
    for (size_t b = 0; b < batches; ++b) {
      const uint64_t t0 = NowNs();
      Result<net::BatchReplyFrame> reply =
          client.Batch(kCollection, list[b], {});
      if (ms != nullptr) ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (!reply.ok()) {
        run->Fail("probe batch: " + reply.status().ToString());
        return;
      }
      if (keep != nullptr) (*keep)[b] = std::move(reply).value();
    }
  };
  send(direct.value(), nullptr, &direct_replies);  // warm both replicas' caches
  probe.routed_before = ReadRegistry();
  std::vector<net::BatchReplyFrame> routed_replies(batches);
  send(routed.value(), &probe.routed_ms, &routed_replies);
  probe.routed_after = probe.direct_before = ReadRegistry();
  send(direct.value(), &probe.direct_ms, nullptr);
  probe.direct_after = ReadRegistry();
  probe.direct_queries = batches * 16;
  size_t mismatches = 0;
  for (size_t b = 0; b < batches && b < probe.routed_ms.size() &&
                     b < probe.direct_ms.size();
       ++b) {
    probe.hop_us.push_back((probe.routed_ms[b] - probe.direct_ms[b]) * 1e3);
    const auto& r = routed_replies[b].items;
    const auto& d = direct_replies[b].items;
    if (r.size() != d.size()) {
      mismatches += list[b].size();
      continue;
    }
    for (size_t i = 0; i < r.size(); ++i) {
      if (r[i].ok != d[i].ok || !SameBits(r[i].estimate, d[i].estimate)) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    run->Fail(std::to_string(mismatches) +
              " routed probe replies differ from direct replies");
  }
  return probe;
}

/// Sends `texts` through the serving path at `port` in 16-query batches and
/// returns the served estimates (checked bit for bit against `expected`).
std::vector<double> ServeAll(uint16_t port, const std::vector<std::string>& texts,
                             const std::vector<double>& expected, Run* run) {
  std::vector<double> served(texts.size(), 0.0);
  Result<net::NetClient> client = net::NetClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    run->Fail("connect: " + client.status().ToString());
    return served;
  }
  size_t mismatches = 0;
  for (size_t begin = 0; begin < texts.size(); begin += 16) {
    const size_t end = std::min(texts.size(), begin + 16);
    std::vector<std::string> batch(texts.begin() + begin, texts.begin() + end);
    Result<net::BatchReplyFrame> reply = client.value().Batch(kCollection, batch);
    run->attempted += batch.size();
    if (!reply.ok() || reply.value().items.size() != batch.size()) {
      run->failed += batch.size();
      continue;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      const net::BatchReplyItem& item = reply.value().items[i];
      if (!item.ok) {
        ++run->failed;
      } else if (!SameBits(item.estimate, expected[begin + i])) {
        ++mismatches;
      }
      served[begin + i] = item.estimate;
    }
  }
  if (mismatches > 0) {
    run->Fail(std::to_string(mismatches) +
              " served ground-truth estimates differ from FlatEstimator");
  }
  return served;
}

/// Reports the closed-loop window's throughput, CPU cost and batch latency
/// with their sample counts. None is an end-to-end metric: on a shared VM
/// each varies between runs of one seed by more than any useful bound
/// (README.md).
void ReportTraffic(const TrafficResult& traffic, double speed_factor,
                   JsonValue* report) {
  const std::vector<BatchSample>& all = traffic.batches;
  const double window_s = traffic.window_s;
  const WindowStats stats = SliceStats(all, traffic.slice_cpu_s, window_s);
  JsonValue w = JsonValue::Object();
  w.members()["cpu_us_per_query"] = Num(stats.cpu_us_per_query);
  double ok = 0.0;
  std::vector<double> ms;
  for (const BatchSample& b : all) {
    ok += b.ok;
    ms.push_back(b.ms);
  }
  w.members()["qps"] = Num(Ratio(ok, window_s));
  w.members()["qps_slice_best_decile"] = Num(stats.qps);
  JsonValue slices = JsonValue::Array();
  for (double q : stats.qps_slices) slices.items().push_back(Num(q));
  w.members()["qps_slices"] = std::move(slices);
  w.members()["batch_p50_ms"] = Num(Quantile(ms, 0.5));
  w.members()["batch_p50_ms_slice_best_decile"] = Num(stats.p50_ms);
  w.members()["batch_p50_ms_calibrated"] = Num(stats.p50_ms / speed_factor);
  w.members()["batch_p90_ms"] = Num(Quantile(ms, 0.9));
  w.members()["batch_p99_ms"] = Num(Quantile(ms, 0.99));
  w.members()["batch_p90_ms_slice_best_decile"] = Num(stats.p90_ms);
  w.members()["batches"] = Num(static_cast<double>(all.size()));
  w.members()["window_s"] = Num(window_s);
  report->members()["window"] = std::move(w);
}

// ---------------------------------------------------------------- build ---

void RunBuild(const Args& args, const Sizes& sizes, Run* run) {
  // Value summaries on every value-bearing cluster (what `xclusterctl
  // build` does without --paths): the costly configuration of the build.
  PipelineConfig config;
  config.build.structural_budget = sizes.build_structural_budget;
  // Set-up produces what the ground truth is sampled from: the document's
  // XML text, parsed, and its reference synopsis. The sampling and the
  // exact counts are the benchmark's own reference data, computed once,
  // untimed.
  std::vector<double> setup_s;
  std::string text;
  xcluster::XmlDocument doc;
  xcluster::GraphSynopsis reference;
  auto time_setups = [&](size_t repeats) {
    for (size_t r = 0; r < repeats; ++r) {
      doc = xcluster::XmlDocument();
      reference = xcluster::GraphSynopsis();
      const double t0 = NowSeconds();
      text = GenerateXml(sizes.build_scale, kDocumentSeed).text;
      Status parsed = xcluster::XmlParser().Parse(text, &doc);
      if (!parsed.ok()) {
        run->Fail("parsing the generated document: " + parsed.ToString());
        return false;
      }
      xcluster::ReferenceOptions options;
      options.value_paths = config.value_paths;
      reference = xcluster::BuildReferenceSynopsis(doc, options);
      setup_s.push_back(NowSeconds() - t0);
    }
    return true;
  };
  if (!time_setups(kBuildSetupRepeats / 2 + 1)) return;
  const GroundTruth truth =
      MakeGroundTruth(doc, reference, sizes.truth_queries, args.seed);
  doc = xcluster::XmlDocument();
  reference = xcluster::GraphSynopsis();
  ReturnFreedMemory();
  if (truth.texts.empty()) {
    run->Fail("ground-truth workload is empty");
    return;
  }
  const std::string path = ImagePath(args, "built");
  for (int i = 0; i < 3; ++i) run->speed.Sample();

  std::vector<StageTimes> stages;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::unique_ptr<BuiltSnapshot> last;
  std::string first_xcs;
  size_t pipelines = 0;
  const RegistryMark build_before = ReadRegistry();
  auto run_phase = [&](double budget_s, size_t min_runs, bool traced,
                       std::vector<double>* samples) {
    const double start = NowSeconds();
    for (size_t n = 0; n < min_runs || NowSeconds() - start < budget_s; ++n) {
      std::optional<telemetry::ScopedTraceContext> scope;
      if (traced) scope.emplace(telemetry::TraceContext{
          telemetry::GenerateTraceId(), true});
      last.reset();  // release the previous image before rebuilding
      if (!traced) run->speed.Sample();
      Result<std::unique_ptr<BuiltSnapshot>> built =
          RunPipeline(text, config, path);
      ++pipelines;
      if (!built.ok()) {
        ++run->failed;
        run->Fail("pipeline: " + built.status().ToString());
        return;
      }
      last = std::move(built).value();
      stages.push_back(last->times);
      samples->push_back(last->times.total);
      if (first_xcs.empty()) {
        first_xcs = last->xcs_bytes;
      } else if (last->xcs_bytes != first_xcs) {
        run->Fail("the .xcs differs between two builds of the same input");
      }
    }
  };
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  // Memory of the build: the highest resident set during the untraced
  // runs, over what the process held before the first one.
  const double rss_mark = RssMb();
  std::optional<RssPeak> rss_peak(std::in_place);
  run_phase(budget, args.trace ? 1 : kBuildRepeats, false, &untraced_s);
  run->e2e.Set("peak_rss_mb", rss_peak->Stop() - rss_mark, "MiB");
  std::unique_ptr<TracedPhase> traced;
  if (args.trace && last != nullptr) {
    traced = std::make_unique<TracedPhase>();
    run_phase(budget, 1, true, &traced_s);
    traced->Stop();
  }
  const RegistryMark build_after = ReadRegistry();
  run->attempted += pipelines;
  if (last == nullptr) return;
  run->e2e.Set("build_s", BestDecile(untraced_s, true), "s");

  // Gate: estimates from the mapped .xcsf equal the compiled synopsis's.
  xcluster::FlatSynopsis compiled(last->synopsis);
  const Oracle compiled_oracle(compiled);
  std::vector<double> mapped_estimates;
  size_t mismatches = 0;
  QueryCost cost;
  {
    const Oracle mapped_oracle(last->view->flat());
    for (const std::string& q : truth.texts) {
      double m = 0.0;
      double c = 0.0;
      if (!mapped_oracle.Estimate(q, &m, &cost) ||
          !compiled_oracle.Estimate(q, &c) || !SameBits(m, c)) {
        ++mismatches;
      }
      mapped_estimates.push_back(m);
    }
  }
  if (mismatches > 0) {
    run->Fail(std::to_string(mismatches) +
              " mapped .xcsf estimates differ from the compiled synopsis");
  }
  run->e2e.Set("est_error_pct", ErrorPercent(truth, mapped_estimates), "%");

  // Estimates on the freshly built image as an optimizer asks them: the
  // first ground-truth queries in 16-query batches, sent to a server that
  // serves the mapped file.
  Result<std::unique_ptr<Fleet>> started = Fleet::Start(Fleet::Options());
  if (!started.ok()) {
    run->Fail("fleet: " + started.status().ToString());
    return;
  }
  Fleet& fleet = *started.value();
  if (!fleet.service(0).store().LoadFile(kCollection, path).ok()) {
    run->Fail("loading the built image into the server failed");
    return;
  }
  ReplaySet set;
  for (size_t begin = 0; begin < truth.texts.size() &&
                         set.batches.size() < sizes.build_serve_batches;
       begin += 16) {
    const size_t end = std::min(truth.texts.size(), begin + 16);
    set.batches.emplace_back(truth.texts.begin() + begin,
                             truth.texts.begin() + end);
    set.expected.emplace_back(mapped_estimates.begin() + begin,
                              mapped_estimates.begin() + end);
    set.queries += end - begin;
  }
  const RegistryMark est_before = ReadRegistry();
  const ServeResult serve =
      ServePasses(fleet.entry_port(), set, xcluster::Lane::kInteractive,
                  sizes.serve_min_passes, sizes.build_serve_s);
  const RegistryMark est_after = ReadRegistry();
  for (int i = 0; i < 3; ++i) run->speed.Sample();
  ReportServeCost(serve, run);
  const ReplayResult replay = ReplayInProcess(
      fleet.service(0), set, xcluster::Lane::kInteractive, kInProcessPasses);
  CheckReplay(replay, run);
  if (!time_setups(kBuildSetupRepeats / 2)) return;
  run->e2e.Set("setup_s", Median(setup_s), "s");

  std::set<std::string> distinct;
  for (const std::vector<std::string>& batch : set.batches) {
    distinct.insert(batch.begin(), batch.end());
  }
  std::set<std::string> shapes;
  for (const std::string& q : distinct) shapes.insert(SkeletonOf(q));
  StreamProperties props;
  props.queries = serve.queries;
  props.distinct = distinct.size();
  props.skeletons = shapes.size();
  const double lanes_per_batch =
      Ratio(static_cast<double>(replay.lanes),
            static_cast<double>(set.batches.size()));
  if (!args.trace) {
    ReportProperties(props, lanes_per_batch, run);
    return;
  }
  ReportPipelineLayers(stages, last->stats, build_before, build_after, run);
  ReportQueryCost(cost, truth.texts.size(), run);
  ReportImageLayers(path, last->xcsf_bytes, run);
  ReportMainCounters(est_before, est_after, run);
  ReportReplay(replay, run);
  Probe probe =
      RunProbe(last->xcsf_bytes, truth.texts, sizes.probe_batches, run);
  ReportDirectLayers(probe.direct_before, probe.direct_after, probe.direct_ms,
                     probe.direct_queries, run);
  run->layer.Set("cluster.route_us",
                 HistogramMeanNs(probe.routed_before, probe.routed_after,
                                 "cluster.route_latency_ns") / 1e3,
                 "us");
  run->layer.Set("cluster.hop_us", Median(probe.hop_us), "us");
  ReportProperties(props, lanes_per_batch, run);
  const std::vector<telemetry::TraceRecorder::Event> events =
      traced->recorder().SnapshotEvents();
  ReportSelfTimes(AttributeSelfTime(events, "bench.pipeline"), run);
  WriteTrace(args, traced->recorder(), run);
  JsonValue overhead = JsonValue::Object();
  overhead.members()["build_s_untraced"] = Num(Median(untraced_s));
  overhead.members()["build_s_traced"] = Num(Median(traced_s));
  const double pct =
      100.0 * (Median(traced_s) - Median(untraced_s)) / Median(untraced_s);
  overhead.members()["build_s_overhead_pct"] = Num(pct);
  run->report.members()["tracing_overhead"] = std::move(overhead);
  run->layer.Set("trace.overhead_pct", pct, "%");

  // The program's own phase spans must account for the build: phase 1 and
  // phase 2 cover XClusterBuild to within the tolerance, and their share
  // of the whole pipeline is reported beside it.
  const std::vector<std::string> phases = {"build.phase1", "build.phase2"};
  const SpanCoverage of_build =
      CoverageOf(events, "bench.build.xclusterbuild", phases);
  const SpanCoverage of_pipeline = CoverageOf(events, "bench.pipeline", phases);
  JsonValue coverage = JsonValue::Object();
  coverage.members()["phases_share_of_xclusterbuild"] =
      Num(Ratio(of_build.covered_ns, of_build.outer_ns));
  coverage.members()["phases_share_of_build_s"] =
      Num(Ratio(of_pipeline.covered_ns, of_pipeline.outer_ns));
  coverage.members()["tolerance"] = Num(kTraceTolerance);
  run->report.members()["build_phase_coverage"] = std::move(coverage);
  if (Ratio(of_build.covered_ns, of_build.outer_ns) < 1.0 - kTraceTolerance) {
    run->Fail("build.phase1 and build.phase2 spans cover less than 95% of "
              "XClusterBuild");
  }
}

// -------------------------------------------------------------- serving ---

/// Everything a serving workload sets up.
struct ServingSetup {
  std::unique_ptr<BuiltSnapshot> snapshot;  ///< the last set-up's
  GroundTruth truth;
  std::vector<StageTimes> stages;  ///< every set-up
  std::vector<double> setup_s;     ///< every set-up
};

/// Times `repeats` set-ups of the serving path: generate the document,
/// build and map its image (to the image file named `tag`), start a server
/// and load the image into it. Each set-up's server is stopped again.
bool TimeServingSetups(const Args& args, const Sizes& sizes, size_t repeats,
                       const std::string& tag, Run* run, ServingSetup* out) {
  PipelineConfig config;
  config.build.structural_budget = sizes.serve_structural_budget;
  for (size_t r = 0; r < repeats; ++r) {
    out->snapshot.reset();
    run->speed.Sample();
    const double t0 = NowSeconds();
    const XmlInput input = GenerateXml(sizes.serve_scale, kDocumentSeed);
    // The paper's XMark setup: value summaries under the generator's 9
    // value paths.
    config.value_paths = input.value_paths;
    Result<std::unique_ptr<BuiltSnapshot>> built =
        RunPipeline(input.text, config, ImagePath(args, tag));
    if (!built.ok()) {
      run->Fail("pipeline: " + built.status().ToString());
      return false;
    }
    out->snapshot = std::move(built).value();
    Result<std::unique_ptr<Fleet>> fleet = Fleet::Start(Fleet::Options());
    if (!fleet.ok()) {
      run->Fail("fleet: " + fleet.status().ToString());
      return false;
    }
    if (!fleet.value()->service(0).store().LoadFile(
            kCollection, out->snapshot->xcsf_path).ok()) {
      run->Fail("loading the image failed");
      return false;
    }
    out->setup_s.push_back(NowSeconds() - t0);
    out->stages.push_back(out->snapshot->times);
  }
  return true;
}

/// Distinct query texts in first-appearance order.
std::vector<std::string> DistinctTexts(const std::vector<std::string>& texts) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const std::string& t : texts) {
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

std::vector<double> ExpectedFor(const std::vector<std::string>& pool,
                                const Oracle& oracle, QueryCost* cost,
                                Run* run) {
  std::vector<double> expected(pool.size(), 0.0);
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!oracle.Estimate(pool[i], &expected[i], cost)) {
      run->Fail("query does not parse: " + pool[i]);
    }
  }
  return expected;
}

std::vector<double> RoundTripsMs(const TrafficResult& traffic) {
  std::vector<double> ms;
  for (const BatchSample& b : traffic.batches) ms.push_back(b.ms);
  return ms;
}

void CountTraffic(const TrafficResult& traffic, Run* run) {
  run->attempted += traffic.attempted;
  run->failed += traffic.failed;
  if (traffic.mismatches > 0) {
    run->Fail(std::to_string(traffic.mismatches) +
              " served estimates differ from FlatEstimator on the same image");
  }
  if (!traffic.first_error.empty()) {
    std::fprintf(stderr, "xbench: transport error: %s\n",
                 traffic.first_error.c_str());
  }
}

/// Advisor replies are checked after the run: each connection's batches
/// are regenerated and estimated in-process on worker threads.
void VerifyRecorded(const QueryStream& stream, uint64_t stream_base,
                    size_t batch_size,
                    const std::vector<std::unique_ptr<ReplyChecker>>& checkers,
                    const Oracle& oracle, QueryCost* cost, uint64_t* queries,
                    Run* run) {
  constexpr size_t kThreads = 3;
  std::vector<QueryCost> costs(kThreads);
  std::vector<uint64_t> counted(kThreads, 0);
  std::vector<uint64_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::string> texts;
      std::vector<uint32_t> ids;
      for (size_t c = 0; c < checkers.size(); ++c) {
        const auto& batches =
            static_cast<const RecordingChecker&>(*checkers[c]).batches;
        for (size_t b = t; b < batches.size(); b += kThreads) {
          const RecordingChecker::Recorded& served = batches[b];
          if (!served.complete) continue;
          stream.Batch(stream_base + c, b, batch_size, &texts, &ids);
          uint64_t digest = 0;
          size_t next_failed = 0;
          for (size_t i = 0; i < texts.size(); ++i) {
            if (next_failed < served.failed.size() &&
                served.failed[next_failed] == i) {
              ++next_failed;
              continue;
            }
            double expected = 0.0;
            if (!oracle.Estimate(texts[i], &expected, &costs[t])) {
              ++mismatches[t];
            }
            digest = FoldEstimate(digest, i, expected);
            ++counted[t];
          }
          if (digest != served.digest) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  uint64_t total_mismatches = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    cost->parse_ns += costs[t].parse_ns;
    cost->compile_ns += costs[t].compile_ns;
    cost->dp_ns += costs[t].dp_ns;
    *queries += counted[t];
    total_mismatches += mismatches[t];
  }
  if (total_mismatches > 0) {
    run->Fail(std::to_string(total_mismatches) +
              " served advisor batches differ from FlatEstimator");
  }
}

void RunServing(const Args& args, const Sizes& sizes, Run* run) {
  const bool advisor = args.workload == "advisor";
  ServingSetup setup;
  if (!TimeServingSetups(args, sizes, kServingSetupRepeats / 2 + 1, "a", run,
                         &setup)) {
    return;
  }
  // The ground truth is sampled, untimed, from the last set-up's document.
  setup.truth = MakeGroundTruth(setup.snapshot->doc,
                                setup.snapshot->reference,
                                sizes.truth_queries, args.seed);
  if (setup.truth.texts.empty()) {
    run->Fail("ground-truth workload is empty");
    return;
  }
  const Oracle oracle(setup.snapshot->view->flat());

  std::vector<std::string> pool = DistinctTexts(setup.truth.texts);
  if (pool.size() > kOptimizerPool) pool.resize(kOptimizerPool);
  QueryCost cost;
  uint64_t costed = pool.size();
  const std::vector<double> expected = ExpectedFor(pool, oracle, &cost, run);

  std::unique_ptr<QueryStream> stream;
  TrafficOptions traffic_options;
  traffic_options.warmup_s = sizes.warmup_s;
  size_t serve_batches = sizes.optimizer_serve_batches;
  if (advisor) {
    std::vector<xcluster::TwigQuery> skeletons;
    for (const auto& q : setup.truth.workload.queries) {
      skeletons.push_back(q.query);
    }
    stream = std::make_unique<AdvisorStream>(
        skeletons, sizes.advisor_skeletons, setup.snapshot->doc, args.seed);
    traffic_options.batch_size = sizes.advisor_batch;
    traffic_options.lane = xcluster::Lane::kBulk;
    serve_batches = sizes.advisor_serve_batches;
    cost = QueryCost();
    costed = 0;
  } else {
    stream = std::make_unique<PoolStream>(pool, kOptimizerZipf, args.seed);
    traffic_options.batch_size = sizes.optimizer_batch;
  }
  const ReplaySet serve_set =
      MakeReplaySet(*stream, kServeConn, serve_batches,
                    traffic_options.batch_size, oracle);
  const std::vector<double> truth_expected =
      ExpectedFor(setup.truth.texts, oracle, nullptr, run);

  // Serving starts here. Its memory is the highest resident set from now
  // until the fixed work below is done, over what the process holds now:
  // the server, its mapped image, caches and buffers, not the benchmark's
  // own document, synopses or reference answers.
  ReleaseIntermediates(setup.snapshot.get());
  const double rss_mark = RssMb();
  std::optional<RssPeak> rss_peak(std::in_place);
  Result<std::unique_ptr<Fleet>> started = Fleet::Start(Fleet::Options());
  if (!started.ok()) {
    run->Fail("fleet: " + started.status().ToString());
    return;
  }
  Fleet& fleet = *started.value();
  if (!fleet.service(0).store().LoadFile(kCollection,
                                         setup.snapshot->xcsf_path).ok()) {
    run->Fail("loading the image failed");
    return;
  }
  // Ground-truth error of the served synopsis, through the serving path.
  const std::vector<double> served =
      ServeAll(fleet.entry_port(), setup.truth.texts, truth_expected, run);
  run->e2e.Set("est_error_pct", ErrorPercent(setup.truth, served), "%");
  // Fixed work on the workload's own batches: the server's CPU time does
  // not depend on how fast threads wake up across the loopback connection,
  // as the round trip does. The first pass fills the caches and is the
  // last work the memory figure covers.
  const ServeResult first_pass = ServePasses(
      fleet.entry_port(), serve_set, traffic_options.lane, 1, 0.0);
  run->e2e.Set("peak_rss_mb", rss_peak->Stop() - rss_mark, "MiB");
  run->attempted += first_pass.queries;
  run->failed += first_pass.failed;
  if (first_pass.mismatches > 0) {
    run->Fail(std::to_string(first_pass.mismatches) +
              " served estimates differ from FlatEstimator on the same image");
  }
  ReportServeCost(ServePasses(fleet.entry_port(), serve_set,
                              traffic_options.lane, sizes.serve_min_passes,
                              args.quick ? sizes.build_serve_s : args.seconds),
                  run);
  const ReplayResult replay = ReplayInProcess(
      fleet.service(0), serve_set, traffic_options.lane, kInProcessPasses);
  CheckReplay(replay, run);

  auto make_checkers = [&] {
    std::vector<std::unique_ptr<ReplyChecker>> checkers;
    for (size_t c = 0; c < traffic_options.connections; ++c) {
      if (advisor) {
        checkers.push_back(std::make_unique<RecordingChecker>());
      } else {
        checkers.push_back(std::make_unique<PoolChecker>(&expected));
      }
    }
    return checkers;
  };
  auto run_phase = [&](uint64_t base, uint32_t trace_every, double window,
                       std::vector<std::unique_ptr<ReplyChecker>>* checkers,
                       RegistryMark* before, RegistryMark* after) {
    TrafficOptions options = traffic_options;
    options.stream_base = base;
    options.trace_every = trace_every;
    options.window_s = window;
    options.slices = std::max<size_t>(kSlices, std::lround(2.0 * window));
    *checkers = make_checkers();
    *before = ReadRegistry();
    TrafficResult result =
        RunTraffic(fleet.entry_port(), *stream, options, *checkers);
    *after = ReadRegistry();
    CountTraffic(result, run);
    return result;
  };

  // The closed loop: reported with its sample counts, not declared.
  const double window = sizes.traffic_window_s;
  std::vector<std::unique_ptr<ReplyChecker>> checkers;
  RegistryMark before, after;
  TrafficResult untraced = run_phase(0, 0, window, &checkers, &before, &after);
  for (int i = 0; i < 3; ++i) run->speed.Sample();
  ReportTraffic(untraced, run->speed.Factor(), &run->report);
  run->report.members()["batch_samples"] =
      Num(static_cast<double>(untraced.batches.size()));
  if (advisor) {
    VerifyRecorded(*stream, 0, traffic_options.batch_size, checkers, oracle,
                   &cost, &costed, run);
  }

  // Workload properties of the measured traffic.
  const StreamProperties props = MeasureStream(
      *stream, untraced.batches_sent, 0, traffic_options.batch_size);

  // The second half of the set-ups, to an image file of their own (the
  // server maps the first).
  ServingSetup later;
  if (!TimeServingSetups(args, sizes, kServingSetupRepeats / 2, "b", run,
                         &later)) {
    return;
  }
  std::vector<double> setup_s = setup.setup_s;
  std::vector<double> build_s;
  setup_s.insert(setup_s.end(), later.setup_s.begin(), later.setup_s.end());
  for (const ServingSetup* s : {&setup, &later}) {
    for (const StageTimes& t : s->stages) build_s.push_back(t.total);
  }
  run->e2e.Set("setup_s", Median(setup_s), "s");
  run->e2e.Set("build_s", BestDecile(build_s, true), "s");
  const double lanes_per_batch =
      Ratio(static_cast<double>(replay.lanes),
            static_cast<double>(serve_set.batches.size()));
  ReportProperties(props, lanes_per_batch, run);
  if (!args.trace) return;

  // Traced phase: same fleet and stream, sampled traces on every Nth batch.
  std::vector<std::unique_ptr<ReplyChecker>> traced_checkers;
  RegistryMark traced_before, traced_after;
  TracedPhase traced;
  TrafficResult traced_traffic =
      run_phase(1000, advisor ? 2 : 16, window, &traced_checkers,
                &traced_before, &traced_after);
  traced.Stop();
  if (advisor) {
    VerifyRecorded(*stream, 1000, traffic_options.batch_size, traced_checkers,
                   oracle, &cost, &costed, run);
  }
  JsonValue traced_report = JsonValue::Object();
  ReportTraffic(traced_traffic, run->speed.Factor(), &traced_report);
  JsonValue overhead = JsonValue::Object();
  auto compare = [&](const char* name, double base, double with) {
    JsonValue entry = JsonValue::Object();
    entry.members()["untraced"] = Num(base);
    entry.members()["traced"] = Num(with);
    entry.members()["change_pct"] = Num(100.0 * Ratio(with - base, base));
    overhead.members()[name] = std::move(entry);
  };
  for (const char* name : {"cpu_us_per_query", "qps", "batch_p50_ms"}) {
    compare(name,
            run->report.members()["window"].members()[name].as_number(),
            traced_report.members()["window"].members()[name].as_number());
  }
  run->layer.Set(
      "trace.overhead_pct",
      overhead.members()["cpu_us_per_query"].members()["change_pct"].as_number(),
      "%");
  run->report.members()["tracing_overhead"] = std::move(overhead);

  ReportPipelineLayers(setup.stages, setup.snapshot->stats,
                       RegistryMark(), ReadRegistry(), run);
  ReportQueryCost(cost, costed, run);
  ReportImageLayers(setup.snapshot->xcsf_path, setup.snapshot->xcsf_bytes,
                    run);
  ReportMainCounters(traced_before, traced_after, run);
  ReportReplay(replay, run);

  std::vector<std::string> probe_texts;
  {
    std::vector<std::string> batch;
    std::vector<uint32_t> ids;
    for (uint64_t b = 0; probe_texts.size() < sizes.probe_batches * 16; ++b) {
      stream->Batch(0, b, 16, &batch, &ids);
      probe_texts.insert(probe_texts.end(), batch.begin(), batch.end());
    }
  }
  Probe probe = RunProbe(setup.snapshot->xcsf_bytes, probe_texts,
                         sizes.probe_batches, run);
  ReportDirectLayers(traced_before, traced_after, RoundTripsMs(traced_traffic),
                     traced_traffic.window_queries, run);
  run->layer.Set("cluster.route_us",
                 HistogramMeanNs(probe.routed_before, probe.routed_after,
                                 "cluster.route_latency_ns") / 1e3,
                 "us");
  run->layer.Set("cluster.hop_us", Median(probe.hop_us), "us");
  ReportSelfTimes(AttributeSelfTime(traced.recorder().SnapshotEvents(),
                                    "bench.client.batch"),
                  run);
  WriteTrace(args, traced.recorder(), run);
}

// ----------------------------------------------------------------- main ---

int Usage() {
  std::fprintf(stderr,
               "usage: xbench --workload build|optimizer|advisor "
               "--seed N --seconds S --trace 0|1 [--quick] "
               "[--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else if (flag == "--quick") {
      args.quick = true;
    } else {
      return Usage();
    }
  }
  const bool serving =
      args.workload == "optimizer" || args.workload == "advisor";
  if ((args.workload != "build" && !serving) || !(args.seconds > 0.0)) {
    return Usage();
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "xbench: refusing to report metrics from an unoptimized "
                 "build (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Run run;
  const Sizes sizes = SizesFor(args);
  if (serving) {
    RunServing(args, sizes, &run);
  } else {
    RunBuild(args, sizes, &run);
  }

  // The serving workloads' set-up and build times are sub-second timings,
  // each taken right after a kernel sample: they follow the machine's
  // speed of the moment, and are given in the units of a quiet machine
  // (see SpeedCalibration). The build workload's 9-s pipelines average over
  // many seconds of that speed, which a 25-ms kernel does not capture:
  // divided, their spread over ten seeds was 2-4x their raw spread, so they
  // stay raw, as does CPU time per query. The report keeps the raw values
  // next to the factor.
  run.report.members()["raw_end_to_end"] = run.e2e.ToJson();
  run.report.members()["speed_calibration"] = run.speed.ToJson();
  if (serving) {
    for (const char* name : {"setup_s", "build_s"}) {
      run.e2e.Scale(name, run.speed.Factor());
    }
  }

  run.report.members()["workload"] = JsonValue::String(args.workload);
  run.report.members()["seed"] = Num(static_cast<double>(args.seed));
  run.report.members()["seconds"] = Num(args.seconds);
  run.report.members()["trace"] = JsonValue::Bool(args.trace);
  run.report.members()["quick"] = JsonValue::Bool(args.quick);
  run.report.members()["environment"] = EnvironmentStamp();
  JsonValue errors = JsonValue::Array();
  for (const std::string& e : run.errors) {
    errors.items().push_back(JsonValue::String(e));
  }
  run.report.members()["check_failures"] = std::move(errors);
  JsonValue wrapped = JsonValue::Object();
  wrapped.members()["report"] = std::move(run.report);
  std::printf("%s\n", wrapped.Dump().c_str());

  for (const char* tag : {"built", "a", "b"}) {
    std::remove(ImagePath(args, tag).c_str());
  }
  const bool correct = run.errors.empty();
  JsonValue result = JsonValue::Object();
  result.members()["correct"] = JsonValue::Bool(correct);
  result.members()["attempted"] =
      Num(static_cast<double>(std::max<uint64_t>(run.attempted, 1)));
  result.members()["failed"] = Num(static_cast<double>(run.failed));
  result.members()["metrics"] =
      args.trace ? run.layer.ToJson() : run.e2e.ToJson();
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
