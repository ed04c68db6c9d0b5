// Closed-loop load generator for the estimation service (the serving-path
// companion to the micro-benches): builds an XMark reference synopsis,
// samples a query workload from it, cycles the workload up to a large
// batch, and drives EstimateBatch through worker pools of increasing
// size. Writes BENCH_service.json ({benchmark, entries, metrics} — the
// shape scripts/check_metrics_schema.py validates) with per-pool
// throughput and the 8-vs-1-worker speedup.
//
//   bench_service [--queries N] [--scale S] [--workers W1,W2,...]
//
// Defaults: 10000 queries, XMark scale 0.15, worker counts 1 and 8.
// Throughput is reported honestly from wall clock — on a single-core
// host the speedup hovers near 1; the >=3x target needs real cores.
//
// The run ends with a trace-overhead A/B/A: baseline, then the same pool
// with a 64Ki ring recorder installed and every batch sampled (the
// always-on daemon tracing configuration), then a second baseline. The
// traced run must hold >= 97% of the slower baseline's throughput or the
// bench exits nonzero — always-on tracing is budgeted at <3%.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/io/file_io.h"
#include "common/json.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/telemetry.h"
#include "common/telemetry/trace.h"
#include "data/xmark.h"
#include "estimate/compiled_twig.h"
#include "query/parser.h"
#include "service/service.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "workload/generator.h"

namespace xcluster {
namespace {

struct BenchConfig {
  size_t queries = 10000;
  double scale = 0.15;
  std::vector<size_t> workers = {1, 8};
};

std::vector<size_t> ParseWorkerList(const char* arg) {
  std::vector<size_t> workers;
  for (const char* cursor = arg; *cursor != '\0';) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(cursor, &end, 10);
    if (end == cursor) break;
    workers.push_back(static_cast<size_t>(value));
    cursor = (*end == ',') ? end + 1 : end;
  }
  return workers;
}

struct PoolRun {
  size_t workers = 0;
  size_t queries = 0;
  BatchStats stats;
  double qps = 0.0;
  /// Per-slot estimates (0.0 for failed slots), kept so every run over
  /// the same query vector can be compared bit for bit with EstimateOne.
  std::vector<double> estimates;
};

/// Installs `synopsis` as "xmark" in `service`, exiting on failure.
void InstallOrDie(EstimationService& service, const XCluster& synopsis) {
  auto installed = service.store().Install("xmark", synopsis);
  if (!installed.ok()) {
    std::fprintf(stderr, "bench_service: install: %s\n",
                 installed.status().ToString().c_str());
    std::exit(1);
  }
}

PoolRun RunPool(const XCluster& synopsis,
                const std::vector<std::string>& queries, size_t workers,
                bool traced = false) {
  ServiceOptions options;
  options.executor.num_threads = workers;
  options.executor.queue_capacity = 4096;
  EstimationService service(options);
  InstallOrDie(service, synopsis);

  BatchOptions batch_options;
  if (traced) {
    batch_options.trace.trace_id = telemetry::GenerateTraceId();
    batch_options.trace.sampled = true;
  }

  // Closed-loop warmup primes the estimator's reach cache and the plan
  // cache so every pool measures steady-state serving, not first-touch
  // DP/compile cost.
  std::vector<std::string> warmup(queries.begin(),
                                  queries.begin() +
                                      std::min<size_t>(queries.size(), 256));
  service.EstimateBatch("xmark", warmup, batch_options);

  PoolRun run;
  run.workers = workers;
  run.queries = queries.size();
  BatchResult batch = service.EstimateBatch("xmark", queries, batch_options);
  run.stats = batch.stats;
  if (batch.stats.wall_ns > 0) {
    run.qps = static_cast<double>(queries.size()) * 1e9 /
              static_cast<double>(batch.stats.wall_ns);
  }
  run.estimates.reserve(batch.results.size());
  for (const QueryResult& result : batch.results) {
    run.estimates.push_back(result.status.ok() ? result.estimate : 0.0);
  }
  if (batch.stats.failed > 0) {
    std::fprintf(stderr, "bench_service: %zu of %zu queries failed\n",
                 batch.stats.failed, queries.size());
  }
  return run;
}

JsonValue PoolEntry(const PoolRun& run) {
  JsonValue entry = JsonValue::Object();
  entry.members()["name"] = JsonValue::String(
      "estimate_batch/workers:" + std::to_string(run.workers));
  entry.members()["workers"] =
      JsonValue::Number(static_cast<double>(run.workers));
  entry.members()["queries"] =
      JsonValue::Number(static_cast<double>(run.queries));
  entry.members()["ok"] = JsonValue::Number(static_cast<double>(run.stats.ok));
  entry.members()["failed"] =
      JsonValue::Number(static_cast<double>(run.stats.failed));
  entry.members()["wall_ms"] =
      JsonValue::Number(static_cast<double>(run.stats.wall_ns) / 1e6);
  entry.members()["qps"] = JsonValue::Number(run.qps);
  entry.members()["p50_latency_us"] = JsonValue::Number(
      static_cast<double>(run.stats.p50_latency_ns) / 1e3);
  entry.members()["p95_latency_us"] = JsonValue::Number(
      static_cast<double>(run.stats.p95_latency_ns) / 1e3);
  entry.members()["batch_groups"] =
      JsonValue::Number(static_cast<double>(run.stats.batch_groups));
  entry.members()["lanes_per_group"] = JsonValue::Number(
      run.stats.batch_groups == 0
          ? 0.0
          : static_cast<double>(run.stats.vector_lanes) /
                static_cast<double>(run.stats.batch_groups));
  return entry;
}

/// One cold start against `path` (either format — SynopsisStore
/// auto-detects): fresh store, load/mmap, compile the first query, return
/// nanoseconds from load start to the first estimate landing. The
/// estimate itself is returned for the bit-identity gate.
uint64_t ColdStartTtfeNs(const std::string& path, const std::string& query,
                         double* estimate) {
  const uint64_t start = telemetry::MonotonicNowNs();
  SynopsisStore store;
  auto loaded = store.LoadFile("cold", path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "bench_service: cold load %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  const StoredSynopsis& snapshot = *loaded.value();
  Result<TwigQuery> twig = ParseTwig(query);
  if (!twig.ok()) std::exit(1);
  const CompiledTwig plan =
      CompiledTwig::Compile(twig.value(), snapshot.flat());
  *estimate = snapshot.flat_estimator().Estimate(plan);
  return telemetry::MonotonicNowNs() - start;
}

int Main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      config.queries = static_cast<size_t>(std::strtoul(argv[++i], nullptr,
                                                        10));
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      config.scale = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.workers = ParseWorkerList(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--queries N] [--scale S] "
                   "[--workers W1,W2,...]\n");
      return 1;
    }
  }
  if (config.queries == 0 || config.workers.empty()) {
    std::fprintf(stderr, "bench_service: nothing to run\n");
    return 1;
  }

  std::fprintf(stderr, "bench_service: generating xmark scale=%g ...\n",
               config.scale);
  XMarkOptions xmark_options;
  xmark_options.scale = config.scale;
  GeneratedDataset dataset = GenerateXMark(xmark_options);

  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  GraphSynopsis reference = BuildReferenceSynopsis(dataset.doc, ref_options);

  WorkloadOptions wl_options;
  wl_options.num_queries = 250;
  Workload workload = GenerateWorkload(dataset.doc, reference, wl_options);
  if (workload.queries.empty()) {
    std::fprintf(stderr, "bench_service: workload generation failed\n");
    return 1;
  }

  // Cycle the sampled workload up to the requested batch size.
  std::vector<std::string> queries;
  queries.reserve(config.queries);
  for (size_t i = 0; i < config.queries; ++i) {
    queries.push_back(
        workload.queries[i % workload.queries.size()].query.ToString());
  }
  const XCluster synopsis{GraphSynopsis(reference)};

  // The bit-identity reference: every query estimated alone, inline, by
  // EstimateOne (0.0 for failed slots, like PoolRun::estimates).
  std::vector<double> expected;
  size_t expected_ok = 0;
  {
    EstimationService reference;
    InstallOrDie(reference, synopsis);
    expected.reserve(queries.size());
    for (const std::string& query : queries) {
      QueryResult one = reference.EstimateOne("xmark", query);
      expected.push_back(one.status.ok() ? one.estimate : 0.0);
      if (one.status.ok()) ++expected_ok;
    }
  }

  int rc = 0;
  JsonValue entries = JsonValue::Array();
  std::vector<PoolRun> runs;
  for (size_t workers : config.workers) {
    std::fprintf(stderr, "bench_service: %zu queries, workers=%zu ...\n",
                 queries.size(), workers);
    PoolRun batch = RunPool(synopsis, queries, workers);
    std::fprintf(stderr,
                 "  qps=%.0f groups=%zu lanes=%zu ok=%zu failed=%zu "
                 "p95_us=%llu\n",
                 batch.qps, batch.stats.batch_groups,
                 batch.stats.vector_lanes, batch.stats.ok, batch.stats.failed,
                 static_cast<unsigned long long>(
                     batch.stats.p95_latency_ns / 1000));

    // Hard bit-identity gate: every slot of the batch run must equal the
    // inline EstimateOne double exactly.
    size_t mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (batch.estimates[i] != expected[i]) ++mismatches;
    }
    if (mismatches > 0 || batch.stats.ok != expected_ok) {
      std::fprintf(stderr,
                   "bench_service: BIT-IDENTITY FAIL workers=%zu: %zu slot "
                   "mismatches (ok %zu vs %zu)\n",
                   workers, mismatches, batch.stats.ok, expected_ok);
      rc = 1;
    }
    entries.items().push_back(PoolEntry(batch));
    runs.push_back(batch);
  }

  // Speedup of the widest pool over the narrowest, as measured: no
  // correction for the host's actual core count.
  if (runs.size() >= 2 && runs.front().qps > 0.0) {
    const PoolRun& narrow = runs.front();
    const PoolRun& wide = runs.back();
    const double speedup = wide.qps / narrow.qps;
    std::fprintf(stderr, "bench_service: speedup workers=%zu vs %zu: %.2fx\n",
                 wide.workers, narrow.workers, speedup);
    JsonValue entry = JsonValue::Object();
    entry.members()["name"] = JsonValue::String(
        "speedup/workers:" + std::to_string(wide.workers) + "v" +
        std::to_string(narrow.workers));
    entry.members()["speedup"] = JsonValue::Number(speedup);
    entry.members()["baseline_qps"] = JsonValue::Number(narrow.qps);
    entry.members()["wide_qps"] = JsonValue::Number(wide.qps);
    entries.items().push_back(std::move(entry));
  }

  // Trace-overhead A/B/A at the widest pool: baseline, ring-traced with
  // every batch sampled, baseline again. Gating against the slower of the
  // two baselines absorbs run-to-run drift on a shared host.
  {
    const size_t workers = config.workers.back();
    std::fprintf(stderr, "bench_service: trace overhead A/B/A, workers=%zu "
                 "...\n", workers);
    PoolRun baseline_a = RunPool(synopsis, queries, workers);
    telemetry::TraceRecorder ring(65536);
    telemetry::TraceRecorder* previous = telemetry::GlobalTraceRecorder();
    telemetry::InstallGlobalTraceRecorder(&ring);
    PoolRun traced = RunPool(synopsis, queries, workers, /*traced=*/true);
    telemetry::InstallGlobalTraceRecorder(previous);
    PoolRun baseline_b = RunPool(synopsis, queries, workers);

    const double floor_qps =
        0.97 * std::min(baseline_a.qps, baseline_b.qps);
    const double overhead_pct =
        std::min(baseline_a.qps, baseline_b.qps) > 0.0
            ? 100.0 * (1.0 - traced.qps /
                                 std::min(baseline_a.qps, baseline_b.qps))
            : 0.0;
    std::fprintf(stderr,
                 "  baseline_a=%.0f traced=%.0f baseline_b=%.0f qps "
                 "(overhead %.2f%%, spans=%llu) -> %s\n",
                 baseline_a.qps, traced.qps, baseline_b.qps, overhead_pct,
                 static_cast<unsigned long long>(ring.total_added()),
                 traced.qps >= floor_qps ? "ok" : "FAIL");
    if (traced.qps < floor_qps) {
      std::fprintf(stderr,
                   "bench_service: ring tracing costs more than 3%% "
                   "(%.0f < %.0f qps)\n", traced.qps, floor_qps);
      rc = 1;
    }

    JsonValue entry = JsonValue::Object();
    entry.members()["name"] = JsonValue::String(
        "trace_overhead/workers:" + std::to_string(workers));
    entry.members()["baseline_a_qps"] = JsonValue::Number(baseline_a.qps);
    entry.members()["traced_qps"] = JsonValue::Number(traced.qps);
    entry.members()["baseline_b_qps"] = JsonValue::Number(baseline_b.qps);
    entry.members()["overhead_pct"] = JsonValue::Number(overhead_pct);
    entry.members()["spans_recorded"] =
        JsonValue::Number(static_cast<double>(ring.total_added()));
    entry.members()["gate_pass"] =
        JsonValue::Number(traced.qps >= floor_qps ? 1.0 : 0.0);
    entries.items().push_back(std::move(entry));
  }

  // Cold start: `.xcs` parse-load vs `.xcsf` mmap-load, measured as
  // time-to-first-estimate (fresh store -> load -> compile the first
  // query -> estimate). Both files describe the same synopsis; minimum of
  // several iterations so the page cache is equally warm for both. Two
  // hard gates: the mmap path must be >= 10x faster, and serving the full
  // workload from the mapped file must be bit-identical slot-for-slot to
  // EstimateOne over the installed synopsis.
  {
    const std::string xcs_path = "bench_coldstart.xcs";
    const std::string xcsf_path = "bench_coldstart.xcsf";
    Status saved = synopsis.Save(xcs_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "bench_service: save %s: %s\n", xcs_path.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    FlatSynopsis flat(synopsis.synopsis());
    saved = storage::XcsfWriter::Write(flat, xcsf_path, /*sync=*/false);
    if (!saved.ok()) {
      std::fprintf(stderr, "bench_service: write %s: %s\n",
                   xcsf_path.c_str(), saved.ToString().c_str());
      return 1;
    }

    const std::string& first_query = queries.front();
    constexpr int kIterations = 7;
    uint64_t xcs_ns = ~uint64_t{0}, xcsf_ns = ~uint64_t{0};
    double xcs_estimate = 0.0, xcsf_estimate = 0.0;
    for (int i = 0; i < kIterations; ++i) {
      xcs_ns = std::min(xcs_ns,
                        ColdStartTtfeNs(xcs_path, first_query, &xcs_estimate));
      xcsf_ns = std::min(
          xcsf_ns, ColdStartTtfeNs(xcsf_path, first_query, &xcsf_estimate));
    }
    const double speedup =
        xcsf_ns > 0 ? static_cast<double>(xcs_ns) /xcsf_ns : 0.0;

    // Slot-for-slot bit-identity of the mapped file over the whole
    // workload, against the EstimateOne reference.
    size_t mismatches = 0;
    {
      ServiceOptions options;
      options.executor.num_threads = config.workers.back();
      options.executor.queue_capacity = 4096;
      EstimationService service(options);
      auto mapped = service.store().LoadFile("xmark", xcsf_path);
      if (!mapped.ok()) {
        std::fprintf(stderr, "bench_service: mmap load: %s\n",
                     mapped.status().ToString().c_str());
        return 1;
      }
      BatchResult batch = service.EstimateBatch("xmark", queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        const double estimate =
            batch.results[i].status.ok() ? batch.results[i].estimate : 0.0;
        if (estimate != expected[i]) ++mismatches;
      }
    }
    if (mismatches > 0 || xcs_estimate != xcsf_estimate) {
      std::fprintf(stderr,
                   "bench_service: MMAP BIT-IDENTITY FAIL: %zu slot "
                   "mismatches (first query %.17g vs %.17g)\n",
                   mismatches, xcs_estimate, xcsf_estimate);
      rc = 1;
    }
    const bool fast_enough = speedup >= 10.0;
    std::fprintf(stderr,
                 "bench_service: cold start xcs=%.2fms xcsf=%.3fms "
                 "(%.1fx, gate >=10x) -> %s\n",
                 static_cast<double>(xcs_ns) / 1e6,
                 static_cast<double>(xcsf_ns) / 1e6, speedup,
                 fast_enough && mismatches == 0 ? "ok" : "FAIL");
    if (!fast_enough) {
      std::fprintf(stderr,
                   "bench_service: COLD-START GATE FAIL: mmap load only "
                   "%.1fx faster than parse load\n",
                   speedup);
      rc = 1;
    }

    JsonValue xcs_entry = JsonValue::Object();
    xcs_entry.members()["name"] = JsonValue::String("cold_start/xcs");
    xcs_entry.members()["ttfe_ms"] =
        JsonValue::Number(static_cast<double>(xcs_ns) / 1e6);
    entries.items().push_back(std::move(xcs_entry));
    JsonValue xcsf_entry = JsonValue::Object();
    xcsf_entry.members()["name"] = JsonValue::String("cold_start/xcsf");
    xcsf_entry.members()["ttfe_ms"] =
        JsonValue::Number(static_cast<double>(xcsf_ns) / 1e6);
    entries.items().push_back(std::move(xcsf_entry));
    JsonValue gate = JsonValue::Object();
    gate.members()["name"] = JsonValue::String("cold_start_speedup");
    gate.members()["speedup"] = JsonValue::Number(speedup);
    gate.members()["bit_identical"] =
        JsonValue::Number(mismatches == 0 ? 1.0 : 0.0);
    gate.members()["gate_pass"] = JsonValue::Number(
        fast_enough && mismatches == 0 ? 1.0 : 0.0);
    entries.items().push_back(std::move(gate));

    std::remove(xcs_path.c_str());
    std::remove(xcsf_path.c_str());
  }

  JsonValue report = JsonValue::Object();
  report.members()["benchmark"] = JsonValue::String("service");
  report.members()["entries"] = std::move(entries);
  Result<JsonValue> metrics = ParseJson(
      telemetry::MetricsRegistry::Global().Snapshot().ToJson());
  if (metrics.ok()) {
    report.members()["metrics"] = std::move(metrics.value());
  }

  const std::string path = "BENCH_service.json";
  Status status = WriteFileAtomic(path, report.Dump(2) + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "bench_service: failed to write %s: %s\n",
                 path.c_str(), status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return rc;
}

}  // namespace
}  // namespace xcluster

int main(int argc, char** argv) { return xcluster::Main(argc, argv); }
