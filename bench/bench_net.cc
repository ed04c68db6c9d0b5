// Closed-loop loopback load generator for the socket front end: builds an
// XMark reference synopsis, starts a NetServer on 127.0.0.1, and drives
// packed batch frames at it from 1 and 8 concurrent connections. Each
// batch carries the full >=10k-query workload in a single frame, so the
// run exercises the framing codec, the poll loop, and EstimateBatch
// end-to-end over TCP. Writes BENCH_net.json ({benchmark, entries,
// metrics} — validated by scripts/check_metrics_schema.py) with per-run
// throughput plus the in-process baseline for the transport overhead.
//
//   bench_net [--queries N] [--scale S] [--connections C1,C2,...]
//             [--rounds R] [--workers W] [--router]
//
// Defaults: 10000 queries per batch, XMark scale 0.1, connections 1 and 8,
// 2 rounds per connection, 8 executor workers.
//
// --router additionally stands up a cluster::Router in front of the
// server and repeats every fan-out through it (entries named
// net_batch_routed/...), plus a slot-by-slot bit-identity comparison of
// one routed batch against the same batch sent directly — quantifying the
// router hop's overhead and proving it never perturbs an estimate.
//
// A final run repeats the widest fan-out with a 64Ki ring recorder
// installed and every batch carrying a sampled trace context — the
// always-on daemon tracing configuration — so BENCH_net.json records the
// traced loopback throughput, the v3 trace-id echo count, and the number
// of spans the ring absorbed.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common/io/file_io.h"
#include "common/json.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "data/xmark.h"
#include "net/client.h"
#include "net/server.h"
#include "service/service.h"
#include "synopsis/reference.h"
#include "workload/generator.h"

namespace xcluster {
namespace {

struct BenchConfig {
  size_t queries = 10000;
  double scale = 0.1;
  std::vector<size_t> connections = {1, 8};
  size_t rounds = 2;
  size_t workers = 8;
  bool router = false;
};

std::vector<size_t> ParseSizeList(const char* arg) {
  std::vector<size_t> values;
  for (const char* cursor = arg; *cursor != '\0';) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(cursor, &end, 10);
    if (end == cursor) break;
    values.push_back(static_cast<size_t>(value));
    cursor = (*end == ',') ? end + 1 : end;
  }
  return values;
}

struct ConnRun {
  size_t connections = 0;
  size_t batches = 0;
  size_t queries_total = 0;
  size_t ok = 0;
  size_t failed = 0;
  size_t errors = 0;  ///< transport-level failures (should stay 0)
  size_t trace_echoes = 0;  ///< batches whose reply echoed a trace id
  double wall_ms = 0.0;
  double qps = 0.0;
  double batch_ms_avg = 0.0;
};

ConnRun RunConnections(uint16_t port, const std::vector<std::string>& queries,
                       size_t connections, size_t rounds,
                       bool traced = false) {
  ConnRun run;
  run.connections = connections;
  std::vector<std::thread> threads;
  std::vector<ConnRun> partials(connections);

  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ConnRun& mine = partials[c];
      Result<net::NetClient> client = net::NetClient::Connect("127.0.0.1",
                                                              port);
      if (!client.ok()) {
        ++mine.errors;
        return;
      }
      for (size_t round = 0; round < rounds; ++round) {
        BatchOptions options;
        if (traced) {
          options.trace.trace_id = telemetry::GenerateTraceId();
          options.trace.sampled = true;
        }
        Result<net::BatchReplyFrame> reply =
            client.value().Batch("xmark", queries, options);
        if (!reply.ok()) {
          ++mine.errors;
          return;
        }
        ++mine.batches;
        mine.queries_total += reply.value().items.size();
        mine.ok += reply.value().stats.ok;
        mine.failed += reply.value().stats.failed;
        if (client.value().last_trace_id() != 0) ++mine.trace_echoes;
      }
      (void)client.value().Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  for (const ConnRun& partial : partials) {
    run.batches += partial.batches;
    run.queries_total += partial.queries_total;
    run.ok += partial.ok;
    run.failed += partial.failed;
    run.errors += partial.errors;
    run.trace_echoes += partial.trace_echoes;
  }
  run.wall_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count() /
      1000.0;
  if (run.wall_ms > 0.0) {
    run.qps = static_cast<double>(run.queries_total) * 1000.0 / run.wall_ms;
  }
  if (run.batches > 0) run.batch_ms_avg = run.wall_ms / run.batches;
  return run;
}

JsonValue ConnEntry(const ConnRun& run) {
  JsonValue entry = JsonValue::Object();
  entry.members()["name"] = JsonValue::String(
      "net_batch/connections:" + std::to_string(run.connections));
  entry.members()["connections"] =
      JsonValue::Number(static_cast<double>(run.connections));
  entry.members()["batches"] =
      JsonValue::Number(static_cast<double>(run.batches));
  entry.members()["queries"] =
      JsonValue::Number(static_cast<double>(run.queries_total));
  entry.members()["ok"] = JsonValue::Number(static_cast<double>(run.ok));
  entry.members()["failed"] =
      JsonValue::Number(static_cast<double>(run.failed));
  entry.members()["transport_errors"] =
      JsonValue::Number(static_cast<double>(run.errors));
  entry.members()["wall_ms"] = JsonValue::Number(run.wall_ms);
  entry.members()["qps"] = JsonValue::Number(run.qps);
  entry.members()["batch_ms_avg"] = JsonValue::Number(run.batch_ms_avg);
  return entry;
}

int Main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      config.queries =
          static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      config.scale = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      config.connections = ParseSizeList(argv[++i]);
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      config.rounds =
          static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.workers =
          static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--router") == 0) {
      config.router = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_net [--queries N] [--scale S] "
                   "[--connections C1,C2,...] [--rounds R] [--workers W] "
                   "[--router]\n");
      return 1;
    }
  }
  if (config.queries == 0 || config.connections.empty() ||
      config.rounds == 0) {
    std::fprintf(stderr, "bench_net: nothing to run\n");
    return 1;
  }

  std::fprintf(stderr, "bench_net: generating xmark scale=%g ...\n",
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
    std::fprintf(stderr, "bench_net: workload generation failed\n");
    return 1;
  }
  std::vector<std::string> queries;
  queries.reserve(config.queries);
  for (size_t i = 0; i < config.queries; ++i) {
    queries.push_back(
        workload.queries[i % workload.queries.size()].query.ToString());
  }

  ServiceOptions service_options;
  service_options.executor.num_threads = config.workers;
  service_options.executor.queue_capacity = 4096;
  EstimationService service(service_options);
  auto installed =
      service.store().Install("xmark", XCluster(GraphSynopsis(reference)));
  if (!installed.ok()) {
    std::fprintf(stderr, "bench_net: install: %s\n",
                 installed.status().ToString().c_str());
    return 1;
  }

  // In-process baseline, which also warms the reach/plan caches so every
  // loopback run measures transport + steady-state serving.
  const auto baseline_start = std::chrono::steady_clock::now();
  BatchResult baseline = service.EstimateBatch("xmark", queries);
  const double baseline_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - baseline_start)
          .count() /
      1000.0;
  std::fprintf(stderr, "bench_net: in-process baseline %.1f ms (%zu ok)\n",
               baseline_ms, baseline.stats.ok);

  net::NetServerOptions net_options;
  net_options.host = "127.0.0.1";
  net_options.port = 0;
  net_options.max_connections = 64;
  net::NetServer server(&service, net_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bench_net: %s\n", started.ToString().c_str());
    return 1;
  }

  // Declared while the server is up but destroyed only after Stop() joins
  // its threads: a server-side span that loaded the recorder pointer just
  // before the traced block uninstalls it must still have a live ring.
  telemetry::TraceRecorder ring(65536);

  JsonValue entries = JsonValue::Array();
  {
    JsonValue entry = JsonValue::Object();
    entry.members()["name"] = JsonValue::String("in_process_baseline");
    entry.members()["queries"] =
        JsonValue::Number(static_cast<double>(config.queries));
    entry.members()["wall_ms"] = JsonValue::Number(baseline_ms);
    entry.members()["qps"] = JsonValue::Number(
        baseline_ms > 0.0 ? static_cast<double>(config.queries) * 1000.0 /
                                baseline_ms
                          : 0.0);
    entries.items().push_back(std::move(entry));
  }

  int rc = 0;
  for (size_t connections : config.connections) {
    std::fprintf(stderr,
                 "bench_net: %zu connection(s) x %zu round(s) x %zu "
                 "queries ...\n",
                 connections, config.rounds, config.queries);
    ConnRun run =
        RunConnections(server.port(), queries, connections, config.rounds);
    std::fprintf(stderr,
                 "  qps=%.0f wall_ms=%.1f batches=%zu ok=%zu failed=%zu "
                 "transport_errors=%zu\n",
                 run.qps, run.wall_ms, run.batches, run.ok, run.failed,
                 run.errors);
    if (run.errors > 0) rc = 1;
    entries.items().push_back(ConnEntry(run));
  }

  // Ring-traced repeat of the widest fan-out: every batch samples its
  // trace, spans land in a bounded ring, and every v3 reply must echo the
  // id back.
  {
    const size_t connections = config.connections.back();
    std::fprintf(stderr,
                 "bench_net: traced %zu connection(s) x %zu round(s) ...\n",
                 connections, config.rounds);
    telemetry::TraceRecorder* previous = telemetry::GlobalTraceRecorder();
    telemetry::InstallGlobalTraceRecorder(&ring);
    ConnRun run = RunConnections(server.port(), queries, connections,
                                 config.rounds, /*traced=*/true);
    telemetry::InstallGlobalTraceRecorder(previous);
    std::fprintf(stderr,
                 "  qps=%.0f wall_ms=%.1f batches=%zu trace_echoes=%zu "
                 "spans=%llu transport_errors=%zu\n",
                 run.qps, run.wall_ms, run.batches, run.trace_echoes,
                 static_cast<unsigned long long>(ring.total_added()),
                 run.errors);
    if (run.errors > 0 || run.trace_echoes != run.batches) {
      std::fprintf(stderr, "bench_net: traced run lost replies or echoes\n");
      rc = 1;
    }
    JsonValue entry = ConnEntry(run);
    entry.members()["name"] = JsonValue::String(
        "net_batch_traced/connections:" + std::to_string(connections));
    entry.members()["trace_echoes"] =
        JsonValue::Number(static_cast<double>(run.trace_echoes));
    entry.members()["spans_recorded"] =
        JsonValue::Number(static_cast<double>(ring.total_added()));
    entries.items().push_back(std::move(entry));
  }

  // --router: the same fan-outs again, but through a cluster router in
  // front of the server — the extra hop (decode, HRW, re-encode) is the
  // measured cost, and one routed batch is checked slot-by-slot against a
  // direct batch for exact IEEE-754 bit identity.
  if (config.router) {
    cluster::RouterOptions router_options;
    router_options.server.host = "127.0.0.1";
    router_options.server.port = 0;
    router_options.server.max_connections = 64;
    router_options.peers = {"127.0.0.1:" + std::to_string(server.port())};
    router_options.replicas.probe_interval_ms = 500;
    router_options.workers = config.workers;
    router_options.queue_capacity = 4096;
    cluster::Router router(std::move(router_options));
    Status router_started = router.Start();
    if (!router_started.ok()) {
      std::fprintf(stderr, "bench_net: router: %s\n",
                   router_started.ToString().c_str());
      return 1;
    }

    // Bit-identity gate: routed and direct replies must agree exactly.
    {
      Result<net::NetClient> direct =
          net::NetClient::Connect("127.0.0.1", server.port());
      Result<net::NetClient> routed =
          net::NetClient::Connect("127.0.0.1", router.port());
      if (!direct.ok() || !routed.ok()) {
        std::fprintf(stderr, "bench_net: router connect failed\n");
        return 1;
      }
      Result<net::BatchReplyFrame> direct_reply =
          direct.value().Batch("xmark", queries, {});
      Result<net::BatchReplyFrame> routed_reply =
          routed.value().Batch("xmark", queries, {});
      size_t mismatches = 0;
      if (!direct_reply.ok() || !routed_reply.ok() ||
          direct_reply.value().items.size() !=
              routed_reply.value().items.size()) {
        mismatches = queries.size();
      } else {
        for (size_t i = 0; i < direct_reply.value().items.size(); ++i) {
          const net::BatchReplyItem& a = direct_reply.value().items[i];
          const net::BatchReplyItem& b = routed_reply.value().items[i];
          if (a.ok != b.ok || a.estimate != b.estimate) ++mismatches;
        }
      }
      std::fprintf(stderr, "bench_net: routed bit-identity mismatches=%zu\n",
                   mismatches);
      if (mismatches > 0) {
        std::fprintf(stderr,
                     "bench_net: routed batch diverges from direct batch\n");
        rc = 1;
      }
      JsonValue entry = JsonValue::Object();
      entry.members()["name"] = JsonValue::String("routed_bit_identity");
      entry.members()["queries"] =
          JsonValue::Number(static_cast<double>(queries.size()));
      entry.members()["mismatches"] =
          JsonValue::Number(static_cast<double>(mismatches));
      entries.items().push_back(std::move(entry));
    }

    for (size_t connections : config.connections) {
      std::fprintf(stderr,
                   "bench_net: routed %zu connection(s) x %zu round(s) x "
                   "%zu queries ...\n",
                   connections, config.rounds, config.queries);
      ConnRun run = RunConnections(router.port(), queries, connections,
                                   config.rounds);
      std::fprintf(stderr,
                   "  qps=%.0f wall_ms=%.1f batches=%zu ok=%zu failed=%zu "
                   "transport_errors=%zu\n",
                   run.qps, run.wall_ms, run.batches, run.ok, run.failed,
                   run.errors);
      if (run.errors > 0) rc = 1;
      JsonValue entry = ConnEntry(run);
      entry.members()["name"] = JsonValue::String(
          "net_batch_routed/connections:" + std::to_string(run.connections));
      entries.items().push_back(std::move(entry));
    }
    router.Stop();
  }

  server.Stop();
  const net::NetServer::Stats stats = server.stats();
  std::fprintf(stderr,
               "bench_net: frames rx=%llu tx=%llu bytes rx=%llu tx=%llu "
               "active_connections=%zu\n",
               static_cast<unsigned long long>(stats.frames_rx),
               static_cast<unsigned long long>(stats.frames_tx),
               static_cast<unsigned long long>(stats.bytes_rx),
               static_cast<unsigned long long>(stats.bytes_tx),
               server.active_connections());
  if (server.active_connections() != 0) {
    std::fprintf(stderr, "bench_net: leaked connections after drain\n");
    rc = 1;
  }

  JsonValue report = JsonValue::Object();
  report.members()["benchmark"] = JsonValue::String("net");
  report.members()["entries"] = std::move(entries);
  Result<JsonValue> metrics = ParseJson(
      telemetry::MetricsRegistry::Global().Snapshot().ToJson());
  if (metrics.ok()) {
    report.members()["metrics"] = std::move(metrics.value());
  }

  const std::string path = "BENCH_net.json";
  Status status = WriteFileAtomic(path, report.Dump(2) + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "bench_net: failed to write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return rc;
}

}  // namespace
}  // namespace xcluster

int main(int argc, char** argv) { return xcluster::Main(argc, argv); }
