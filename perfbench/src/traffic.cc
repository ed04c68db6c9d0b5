#include "traffic.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <ctime>
#include <cstring>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <thread>
#include <unordered_set>

#include "cluster/hash_ring.h"
#include "common/telemetry/trace.h"
#include "net/client.h"
#include "text/tokenizer.h"
#include "util.h"

namespace perfbench {

using xcluster::Result;
using xcluster::Rng;
using xcluster::Status;
using xcluster::TwigQuery;
using xcluster::ValuePredicate;
namespace net = xcluster::net;
namespace telemetry = xcluster::telemetry;

namespace {

/// Seed of batch `index` on stream connection `conn`.
uint64_t BatchSeed(uint64_t seed, uint64_t conn, uint64_t index) {
  return telemetry::MixTraceId(
      seed ^ telemetry::MixTraceId((conn << 40) ^ index ^ 0x5bd1e995ull));
}

/// True when `s` can stand as an unquoted predicate argument (and leaves
/// SkeletonOf's parenthesis matching intact).
bool SafeArg(const std::string& s) {
  return !s.empty() && s[0] != '"' &&
         std::none_of(s.begin(), s.end(), [](unsigned char c) {
           return std::isspace(c) != 0 || c == ',' || c == '(' || c == ')';
         });
}

}  // namespace

PoolStream::PoolStream(std::vector<std::string> pool, double theta,
                       uint64_t seed)
    : pool_(std::move(pool)),
      zipf_(std::max<size_t>(pool_.size(), 1), theta),
      seed_(seed) {
  rank_to_id_.resize(pool_.size());
  for (size_t i = 0; i < pool_.size(); ++i) {
    rank_to_id_[i] = static_cast<uint32_t>(i);
  }
  Rng rng(seed ^ 0x243f6a8885a308d3ull);
  for (size_t i = rank_to_id_.size(); i > 1; --i) {
    std::swap(rank_to_id_[i - 1], rank_to_id_[rng.Uniform(i)]);
  }
}

void PoolStream::Batch(uint64_t conn, uint64_t index, size_t size,
                       std::vector<std::string>* texts,
                       std::vector<uint32_t>* ids) const {
  Rng rng(BatchSeed(seed_, conn, index));
  texts->clear();
  ids->clear();
  for (size_t i = 0; i < size; ++i) {
    const uint32_t id = rank_to_id_[zipf_.Sample(&rng)];
    ids->push_back(id);
    texts->push_back(pool_[id]);
  }
}

AdvisorStream::AdvisorStream(const std::vector<TwigQuery>& skeletons,
                             size_t max_skeletons,
                             const xcluster::XmlDocument& doc, uint64_t seed)
    : seed_(seed) {
  // One query per distinct shape, most frequent shapes first.
  std::map<std::string, std::pair<size_t, const TwigQuery*>> by_shape;
  for (const TwigQuery& query : skeletons) {
    if (query.PredicateCount() == 0) continue;
    auto& entry = by_shape[SkeletonOf(query.ToString())];
    if (entry.first++ == 0) entry.second = &query;
  }
  std::vector<std::pair<size_t, const TwigQuery*>> shapes;
  for (const auto& [shape, entry] : by_shape) shapes.push_back(entry);
  std::stable_sort(shapes.begin(), shapes.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  if (shapes.size() > max_skeletons) shapes.resize(max_skeletons);
  for (const auto& shape : shapes) skeletons_.push_back(*shape.second);

  // Constants are redrawn from the values the document holds under the
  // predicate's label, so redrawn predicates stay plausible.
  std::set<std::string> terms;
  for (xcluster::NodeId id = 0; id < doc.size(); ++id) {
    const xcluster::XmlNode& node = doc.node(id);
    if (node.type == xcluster::ValueType::kNone) continue;
    const std::string& label = doc.label_name(id);
    if (node.type == xcluster::ValueType::kNumeric) {
      LabelValues& values = values_[label];
      if (values.numbers.empty() || node.numeric < values.min) {
        values.min = node.numeric;
      }
      if (values.numbers.empty() || node.numeric > values.max) {
        values.max = node.numeric;
      }
      values.numbers.push_back(node.numeric);
    } else if (node.type == xcluster::ValueType::kString) {
      values_[label].strings.push_back(node.text);
    } else {
      for (std::string& term : xcluster::Tokenize(node.text)) {
        if (SafeArg(term)) terms.insert(std::move(term));
      }
    }
  }
  terms_.assign(terms.begin(), terms.end());
}

void AdvisorStream::Redraw(const std::string& label, ValuePredicate* pred,
                           Rng* rng) const {
  auto it = values_.find(label);
  const LabelValues empty;
  const LabelValues& values = it == values_.end() ? empty : it->second;
  switch (pred->kind) {
    case ValuePredicate::Kind::kRange: {
      if (values.numbers.empty()) return;
      // Bounds reach one domain width past either end, as a what-if sweep
      // does.
      const int64_t width = values.max - values.min + 1;
      pred->lo = rng->UniformRange(values.min - width, values.max);
      pred->hi = rng->UniformRange(pred->lo, values.max + width);
      return;
    }
    case ValuePredicate::Kind::kContains: {
      for (int attempt = 0; attempt < 8 && !values.strings.empty();
           ++attempt) {
        const std::string& s =
            values.strings[rng->Uniform(values.strings.size())];
        const size_t len = 3 + rng->Uniform(10);
        if (s.size() < len) continue;
        std::string sub = s.substr(rng->Uniform(s.size() - len + 1), len);
        if (!SafeArg(sub)) continue;
        pred->substring = std::move(sub);
        return;
      }
      return;
    }
    default:
      // One to three keywords: the vocabulary alone is too small to keep
      // single-keyword queries distinct.
      if (terms_.empty()) return;
      pred->terms.resize(1 + rng->Uniform(3));
      for (std::string& term : pred->terms) {
        term = terms_[rng->Uniform(terms_.size())];
      }
      pred->term_ids.clear();
      return;
  }
}

std::string AdvisorStream::Draw(Rng* rng) const {
  TwigQuery query = skeletons_[rng->Uniform(skeletons_.size())];
  for (xcluster::QueryVarId v = 0; v < query.size(); ++v) {
    xcluster::QueryVar& var = query.var(v);
    if (var.step.wildcard) continue;
    for (ValuePredicate& pred : var.predicates) {
      Redraw(var.step.label, &pred, rng);
    }
  }
  return query.ToString();
}

void AdvisorStream::Batch(uint64_t conn, uint64_t index, size_t size,
                          std::vector<std::string>* texts,
                          std::vector<uint32_t>* ids) const {
  Rng rng(BatchSeed(seed_, conn, index));
  texts->clear();
  ids->clear();
  for (size_t i = 0; i < size; ++i) texts->push_back(Draw(&rng));
}

std::string SkeletonOf(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  int depth = 0;
  for (char c : text) {
    if (c == '(') {
      if (depth++ == 0) out.push_back(c);
    } else if (c == ')') {
      if (--depth == 0) out.push_back(c);
    } else if (depth == 0) {
      out.push_back(c);
    }
  }
  return out;
}

xcluster::ServiceOptions ReplicaServiceOptions(size_t workers) {
  xcluster::ServiceOptions options;
  options.executor.num_threads = workers;
  options.executor.queue_capacity = 4096;
  return options;
}

Result<std::unique_ptr<Fleet>> Fleet::Start(const Options& options) {
  std::unique_ptr<Fleet> fleet(new Fleet());
  std::vector<std::string> peers;
  for (size_t i = 0; i < options.replicas; ++i) {
    Replica replica;
    replica.service = std::make_unique<xcluster::EstimationService>(
        ReplicaServiceOptions(options.workers));
    net::NetServerOptions server_options;
    server_options.host = "127.0.0.1";
    server_options.port = 0;
    replica.server = std::make_unique<net::NetServer>(replica.service.get(),
                                                      server_options);
    Status started = replica.server->Start();
    if (!started.ok()) return started;
    peers.push_back("127.0.0.1:" + std::to_string(replica.server->port()));
    fleet->replicas_.push_back(std::move(replica));
  }
  if (options.router) {
    xcluster::cluster::RouterOptions router_options;
    router_options.server.host = "127.0.0.1";
    router_options.server.port = 0;
    router_options.peers = peers;
    router_options.replicas.probe_interval_ms = 1000;
    router_options.workers = options.workers;
    fleet->router_ =
        std::make_unique<xcluster::cluster::Router>(std::move(router_options));
    Status started = fleet->router_->Start();
    if (!started.ok()) return started;
  }
  std::vector<uint64_t> seeds;
  for (const std::string& peer : peers) {
    seeds.push_back(xcluster::cluster::ReplicaSeed(peer));
  }
  fleet->primary_ = xcluster::cluster::RankReplicas(
      xcluster::cluster::CollectionHash(kCollection), seeds)[0];
  return fleet;
}

Fleet::~Fleet() {
  if (router_ != nullptr) router_->Stop();
  router_.reset();
  for (Replica& replica : replicas_) {
    replica.server->Stop();
    replica.service->Shutdown();
  }
}

uint16_t Fleet::entry_port() const {
  return router_ != nullptr ? router_->port() : replicas_[0].server->port();
}

Result<uint64_t> PushImage(uint16_t port, const std::string& bytes) {
  Result<net::NetClient> client = net::NetClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  Result<net::InstallReplyFrame> reply =
      client.value().Install(kCollection, bytes);
  if (!reply.ok()) return reply.status();
  if (!reply.value().ok) {
    return Status::Unavailable("install refused: " + reply.value().message);
  }
  return reply.value().generation;
}

size_t PoolChecker::Check(const std::vector<std::string>& texts,
                          const std::vector<uint32_t>& ids,
                          const net::BatchReplyFrame& reply) {
  if (reply.items.size() != texts.size()) return texts.size();
  size_t mismatches = 0;
  for (size_t i = 0; i < reply.items.size(); ++i) {
    if (!reply.items[i].ok) continue;
    if (!SameBits(reply.items[i].estimate, (*expected_)[ids[i]])) {
      ++mismatches;
    }
  }
  return mismatches;
}

uint64_t FoldEstimate(uint64_t digest, size_t slot, double estimate) {
  uint64_t bits = 0;
  std::memcpy(&bits, &estimate, sizeof(bits));
  return telemetry::MixTraceId(digest ^ bits ^
                               (static_cast<uint64_t>(slot) << 52));
}

size_t RecordingChecker::Check(const std::vector<std::string>& texts,
                               const std::vector<uint32_t>&,
                               const net::BatchReplyFrame& reply) {
  Recorded& recorded = batches.emplace_back();
  if (reply.items.size() != texts.size()) {
    recorded.complete = false;
    return 0;  // a failed batch is counted as failed, not checked
  }
  for (size_t i = 0; i < reply.items.size(); ++i) {
    if (reply.items[i].ok) {
      recorded.digest = FoldEstimate(recorded.digest, i, reply.items[i].estimate);
    } else {
      recorded.failed.push_back(static_cast<uint32_t>(i));
    }
  }
  return 0;
}

TrafficResult RunTraffic(uint16_t port, const QueryStream& stream,
                         const TrafficOptions& options,
                         std::vector<std::unique_ptr<ReplyChecker>>& checkers) {
  struct PerConn {
    std::vector<BatchSample> samples;
    uint64_t window_queries = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatches = 0;
    uint64_t batches = 0;
    std::string error;
  };
  constexpr uint64_t kOpen = std::numeric_limits<uint64_t>::max();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> window_start{kOpen};
  std::atomic<uint64_t> window_end{kOpen};
  std::vector<PerConn> per(options.connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      PerConn& mine = per[c];
      ReplyChecker& checker = *checkers[c];
      Result<net::NetClient> client =
          net::NetClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        mine.error = client.status().ToString();
        mine.attempted = mine.failed = 1;
        return;
      }
      std::vector<std::string> texts;
      std::vector<uint32_t> ids;
      for (uint64_t b = 0; !stop.load(std::memory_order_relaxed); ++b) {
        stream.Batch(options.stream_base + c, b, options.batch_size, &texts,
                     &ids);
        xcluster::BatchOptions batch_options;
        batch_options.lane = options.lane;
        const bool traced =
            options.trace_every != 0 && b % options.trace_every == 0;
        std::optional<telemetry::ScopedTraceContext> scope;
        std::optional<telemetry::TraceSpan> span;
        if (traced) {
          batch_options.trace.trace_id = telemetry::GenerateTraceId();
          batch_options.trace.sampled = true;
          scope.emplace(batch_options.trace);
          span.emplace("bench.client.batch");
        }
        const uint64_t t0 = NowNs();
        Result<net::BatchReplyFrame> reply =
            client.value().Batch(kCollection, texts, batch_options);
        const uint64_t t1 = NowNs();
        span.reset();
        scope.reset();
        ++mine.batches;
        mine.attempted += texts.size();
        if (!reply.ok()) {
          // A transport failure ends this connection: the fleet runs in
          // this process and never drops a healthy client.
          mine.failed += texts.size();
          mine.error = reply.status().ToString();
          checker.Check(texts, ids, net::BatchReplyFrame());
          return;
        }
        uint64_t ok = 0;
        for (const net::BatchReplyItem& item : reply.value().items) {
          ok += item.ok ? 1 : 0;
        }
        mine.failed += texts.size() - ok;
        mine.mismatches += checker.Check(texts, ids, reply.value());
        if (t0 >= window_start.load(std::memory_order_relaxed) &&
            t1 <= window_end.load(std::memory_order_relaxed)) {
          mine.samples.push_back(
              {static_cast<float>(static_cast<double>(t1 - window_start.load()) / 1e9),
               static_cast<float>(static_cast<double>(t1 - t0) / 1e6),
               static_cast<uint32_t>(ok)});
          mine.window_queries += texts.size();
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(options.warmup_s));
  TrafficResult result;
  double cpu_mark = ProcessCpuSeconds();
  const auto clock_start = std::chrono::steady_clock::now();
  const uint64_t start = NowNs();
  window_start.store(start);
  for (size_t i = 1; i <= options.slices; ++i) {
    std::this_thread::sleep_until(
        clock_start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(
                              options.window_s * static_cast<double>(i) /
                              static_cast<double>(options.slices))));
    const double cpu = ProcessCpuSeconds();
    result.slice_cpu_s.push_back(cpu - cpu_mark);
    cpu_mark = cpu;
  }
  const uint64_t end = NowNs();
  window_end.store(end);
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  result.window_s = static_cast<double>(end - start) / 1e9;
  for (PerConn& conn : per) {
    result.batches.insert(result.batches.end(), conn.samples.begin(),
                          conn.samples.end());
    result.window_queries += conn.window_queries;
    result.attempted += conn.attempted;
    result.failed += conn.failed;
    result.mismatches += conn.mismatches;
    result.batches_sent.push_back(conn.batches);
    if (result.first_error.empty()) result.first_error = conn.error;
  }
  return result;
}

ReplaySet MakeReplaySet(const QueryStream& stream, uint64_t conn,
                        size_t count, size_t batch_size, const Oracle& oracle) {
  ReplaySet set;
  std::vector<uint32_t> ids;
  for (size_t b = 0; b < count; ++b) {
    std::vector<std::string>& texts = set.batches.emplace_back();
    stream.Batch(conn, b, batch_size, &texts, &ids);
    std::vector<double>& expected = set.expected.emplace_back(texts.size());
    for (size_t i = 0; i < texts.size(); ++i) {
      oracle.Estimate(texts[i], &expected[i]);
    }
    set.queries += texts.size();
  }
  return set;
}

ReplayResult ReplayInProcess(xcluster::EstimationService& service,
                             const ReplaySet& set, xcluster::Lane lane,
                             size_t passes) {
  ReplayResult result;
  xcluster::BatchOptions options;
  options.lane = lane;
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t b = 0; b < set.batches.size(); ++b) {
      const std::vector<std::string>& texts = set.batches[b];
      const uint64_t t0 = NowNs();
      xcluster::BatchResult batch =
          service.EstimateBatch(kCollection, texts, options);
      result.batch_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (pass == 0) {
        result.slots += texts.size();
        result.lanes += batch.stats.vector_lanes;
        result.groups += batch.stats.batch_groups;
      }
      for (size_t i = 0; i < texts.size(); ++i) {
        if (!batch.results[i].status.ok() ||
            !SameBits(batch.results[i].estimate, set.expected[b][i])) {
          ++result.mismatches;
        }
      }
    }
  }
  return result;
}

namespace {

double CpuClockUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

}  // namespace

ServeResult ServePasses(uint16_t port, const ReplaySet& set,
                        xcluster::Lane lane, size_t min_passes,
                        double budget_s) {
  ServeResult result;
  Result<net::NetClient> client = net::NetClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    result.error = client.status().ToString();
    result.failed = result.queries = set.queries;
    return result;
  }
  xcluster::BatchOptions options;
  options.lane = lane;
  std::vector<std::vector<double>> cpu_us(set.batches.size());
  std::vector<double> pass_us;
  const double start = NowSeconds();
  while (pass_us.size() < min_passes || NowSeconds() - start < budget_s) {
    const uint64_t pass_start = NowNs();
    for (size_t b = 0; b < set.batches.size(); ++b) {
      const std::vector<std::string>& texts = set.batches[b];
      const double process0 = CpuClockUs(CLOCK_PROCESS_CPUTIME_ID);
      const double thread0 = CpuClockUs(CLOCK_THREAD_CPUTIME_ID);
      Result<net::BatchReplyFrame> reply =
          client.value().Batch(kCollection, texts, options);
      const double thread1 = CpuClockUs(CLOCK_THREAD_CPUTIME_ID);
      const double process1 = CpuClockUs(CLOCK_PROCESS_CPUTIME_ID);
      cpu_us[b].push_back((process1 - process0) - (thread1 - thread0));
      result.queries += texts.size();
      if (!reply.ok() || reply.value().items.size() != texts.size()) {
        // The server runs in this process and never drops a healthy
        // client: a transport failure ends the measurement.
        result.failed += texts.size();
        if (result.error.empty()) {
          result.error = reply.ok() ? "short reply" : reply.status().ToString();
        }
        return result;
      }
      for (size_t i = 0; i < texts.size(); ++i) {
        const net::BatchReplyItem& item = reply.value().items[i];
        if (!item.ok) {
          ++result.failed;
        } else if (!SameBits(item.estimate, set.expected[b][i])) {
          ++result.mismatches;
        }
      }
    }
    pass_us.push_back(static_cast<double>(NowNs() - pass_start) / 1e3);
  }
  double cpu_sum = 0.0;
  for (const std::vector<double>& samples : cpu_us) cpu_sum += Median(samples);
  const double queries = static_cast<double>(set.queries);
  result.cpu_us_per_query = Ratio(cpu_sum, queries);
  result.wall_us_per_query = Ratio(Median(pass_us), queries);
  result.passes = pass_us.size();
  return result;
}

StreamProperties MeasureStream(const QueryStream& stream,
                               const std::vector<uint64_t>& batches_sent,
                               uint64_t stream_base, size_t batch_size) {
  std::vector<uint64_t> hashes;
  std::unordered_set<std::string> skeletons;
  std::vector<std::string> texts;
  std::vector<uint32_t> ids;
  std::vector<bool> seen_ids;
  StreamProperties props;
  for (size_t c = 0; c < batches_sent.size(); ++c) {
    for (uint64_t b = 0; b < batches_sent[c]; ++b) {
      stream.Batch(stream_base + c, b, batch_size, &texts, &ids);
      props.queries += texts.size();
      for (size_t i = 0; i < texts.size(); ++i) {
        if (!ids.empty()) {
          // Pool streams: a text is new iff its pool id is.
          if (ids[i] >= seen_ids.size()) seen_ids.resize(ids[i] + 1, false);
          if (seen_ids[ids[i]]) continue;
          seen_ids[ids[i]] = true;
          ++props.distinct;
        } else {
          hashes.push_back(std::hash<std::string>()(texts[i]));
        }
        skeletons.insert(SkeletonOf(texts[i]));
      }
    }
  }
  if (!hashes.empty()) {
    std::sort(hashes.begin(), hashes.end());
    props.distinct =
        std::unique(hashes.begin(), hashes.end()) - hashes.begin();
  }
  props.skeletons = skeletons.size();
  return props;
}

}  // namespace perfbench
