// Serving-side machinery of the benchmark: deterministic query streams,
// the in-process fleet (EstimationService + NetServer replicas, optionally
// behind a cluster::Router), closed-loop client connections, and the
// checks every reply must pass.
#ifndef PERFBENCH_TRAFFIC_H_
#define PERFBENCH_TRAFFIC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/zipf.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pipeline.h"
#include "util.h"
#include "query/twig.h"
#include "service/service.h"
#include "xml/document.h"

namespace perfbench {

/// The one collection every workload serves.
inline constexpr char kCollection[] = "xmark";

/// A deterministic query stream: batch `index` of connection `conn` is a
/// pure function of the stream's seed, so a run's batches can be
/// regenerated after the run for verification and replay.
class QueryStream {
 public:
  virtual ~QueryStream() = default;

  /// Fills `texts` with the batch. `ids` receives pool indices for
  /// streams drawn from a fixed pool and is left empty otherwise.
  virtual void Batch(uint64_t conn, uint64_t index, size_t size,
                     std::vector<std::string>* texts,
                     std::vector<uint32_t>* ids) const = 0;
};

/// Zipf-skewed draws from a fixed pool of distinct queries (the optimizer
/// model: a plan enumerator re-asking about the same subexpressions).
class PoolStream : public QueryStream {
 public:
  PoolStream(std::vector<std::string> pool, double theta, uint64_t seed);
  void Batch(uint64_t conn, uint64_t index, size_t size,
             std::vector<std::string>* texts,
             std::vector<uint32_t>* ids) const override;

 private:
  std::vector<std::string> pool_;
  std::vector<uint32_t> rank_to_id_;  ///< seeded shuffle: which ids are hot
  xcluster::ZipfSampler zipf_;
  uint64_t seed_;
};

/// What-if advisor queries: a skeleton drawn from the positive workload
/// with every predicate constant redrawn from the document's own values
/// (range bounds around the label's numeric domain, substrings of the
/// label's string values, keywords from the document's text vocabulary).
class AdvisorStream : public QueryStream {
 public:
  /// Keeps the `max_skeletons` most frequent shapes among the `skeletons`
  /// that carry a value predicate (the common shapes of a large sample are
  /// the same for every sampling seed).
  AdvisorStream(const std::vector<xcluster::TwigQuery>& skeletons,
                size_t max_skeletons, const xcluster::XmlDocument& doc,
                uint64_t seed);
  void Batch(uint64_t conn, uint64_t index, size_t size,
             std::vector<std::string>* texts,
             std::vector<uint32_t>* ids) const override;

 private:
  struct LabelValues {
    std::vector<int64_t> numbers;
    int64_t min = 0;
    int64_t max = 0;
    std::vector<std::string> strings;
  };
  std::string Draw(xcluster::Rng* rng) const;
  void Redraw(const std::string& label, xcluster::ValuePredicate* pred,
              xcluster::Rng* rng) const;

  std::vector<xcluster::TwigQuery> skeletons_;
  std::map<std::string, LabelValues> values_;
  std::vector<std::string> terms_;  ///< the document's text vocabulary
  uint64_t seed_;
};

/// The predicate-free shape of a query's text (arguments of every
/// predicate call removed) — what the engine groups lanes by.
std::string SkeletonOf(const std::string& text);

/// Replicas (EstimationService behind a NetServer each), optionally behind
/// a cluster::Router. All in this process, on loopback.
class Fleet {
 public:
  struct Options {
    size_t replicas = 1;
    bool router = false;
    size_t workers = 2;  ///< executor threads per replica / router pool
  };

  static xcluster::Result<std::unique_ptr<Fleet>> Start(const Options& options);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Where clients connect: the router when there is one, else replica 0.
  uint16_t entry_port() const;
  uint16_t replica_port(size_t i) const { return replicas_[i].server->port(); }
  /// The replica the router's rendezvous hash prefers for kCollection.
  size_t primary() const { return primary_; }
  xcluster::EstimationService& service(size_t i) {
    return *replicas_[i].service;
  }

 private:
  Fleet() = default;
  struct Replica {
    std::unique_ptr<xcluster::EstimationService> service;
    std::unique_ptr<xcluster::net::NetServer> server;
  };
  std::vector<Replica> replicas_;
  std::unique_ptr<xcluster::cluster::Router> router_;
  size_t primary_ = 0;
};

/// Pushes `bytes` (an XCSF image) to the server or router at `port` with
/// a v4 chunked Install; returns the acknowledged generation.
xcluster::Result<uint64_t> PushImage(uint16_t port, const std::string& bytes);

/// Checks served replies against the in-process reference. One instance
/// per connection (called from that connection's thread only).
class ReplyChecker {
 public:
  virtual ~ReplyChecker() = default;
  /// Returns how many slots of `reply` disagree with the reference.
  virtual size_t Check(const std::vector<std::string>& texts,
                       const std::vector<uint32_t>& ids,
                       const xcluster::net::BatchReplyFrame& reply) = 0;
};

/// Pool streams: reply slot i must equal expected[ids[i]] bit for bit.
class PoolChecker : public ReplyChecker {
 public:
  explicit PoolChecker(const std::vector<double>* expected)
      : expected_(expected) {}
  size_t Check(const std::vector<std::string>& texts,
               const std::vector<uint32_t>& ids,
               const xcluster::net::BatchReplyFrame& reply) override;

 private:
  const std::vector<double>* expected_;
};

/// Folds one served estimate into a batch digest (order-sensitive, exact
/// on the IEEE-754 bits).
uint64_t FoldEstimate(uint64_t digest, size_t slot, double estimate);

/// Advisor: replies are checked after the run (each distinct query needs
/// its own in-process estimate, as expensive as serving it). A digest per
/// batch keeps the memory the check needs independent of throughput.
class RecordingChecker : public ReplyChecker {
 public:
  struct Recorded {
    uint64_t digest = 0;            ///< FoldEstimate over the ok slots
    bool complete = true;           ///< false when the batch failed outright
    std::vector<uint32_t> failed;   ///< slots that came back with an error
  };
  size_t Check(const std::vector<std::string>& texts,
               const std::vector<uint32_t>& ids,
               const xcluster::net::BatchReplyFrame& reply) override;
  std::vector<Recorded> batches;  ///< one per batch sent, in order
};

struct TrafficOptions {
  size_t connections = 2;
  size_t batch_size = 16;
  xcluster::Lane lane = xcluster::Lane::kInteractive;
  double warmup_s = 0.5;
  double window_s = 10.0;
  uint64_t stream_base = 0;  ///< connection c draws stream conn = base + c
  /// 0 = untraced; N > 0 = every Nth batch carries a sampled trace context
  /// under a benchmark-side "bench.client.batch" span.
  uint32_t trace_every = 0;
  size_t slices = 20;  ///< the window is cut into this many (SliceStats)
};

struct TrafficResult {
  std::vector<BatchSample> batches;  ///< completed inside the window
  double window_s = 0.0;
  std::vector<double> slice_cpu_s;  ///< process CPU time per window slice
  uint64_t window_queries = 0;   ///< queries of the batches in `batches`
  uint64_t attempted = 0;        ///< all queries sent, warm-up included
  uint64_t failed = 0;
  uint64_t mismatches = 0;       ///< slots that failed a correctness check
  std::vector<uint64_t> batches_sent;  ///< per connection
  std::string first_error;
};

/// Closed-loop traffic: each connection sends its next batch as soon as the
/// previous reply is in. Warm-up, then a measured window. `checkers` holds
/// one checker per connection.
TrafficResult RunTraffic(uint16_t port, const QueryStream& stream,
                         const TrafficOptions& options,
                         std::vector<std::unique_ptr<ReplyChecker>>& checkers);

/// Options of every replica's EstimationService (and of the service the
/// build workload estimates through).
xcluster::ServiceOptions ReplicaServiceOptions(size_t workers);

/// Fixed batches and the in-process reference answer of every slot.
struct ReplaySet {
  std::vector<std::vector<std::string>> batches;
  std::vector<std::vector<double>> expected;
  uint64_t queries = 0;
};

/// Batches 0..count-1 of stream connection `conn`, answered by `oracle`.
ReplaySet MakeReplaySet(const QueryStream& stream, uint64_t conn,
                        size_t count, size_t batch_size, const Oracle& oracle);

/// A ReplaySet sent through EstimationService::EstimateBatch in-process,
/// pass after pass.
struct ReplayResult {
  std::vector<double> batch_us;  ///< wall time of every batch, every pass
  uint64_t slots = 0;            ///< first pass only, as are lanes and groups
  uint64_t lanes = 0;
  uint64_t groups = 0;
  uint64_t mismatches = 0;       ///< slots differing from `expected`, all passes
};

/// Replays `set` on `service` `passes` times; every result is checked bit
/// for bit.
ReplayResult ReplayInProcess(xcluster::EstimationService& service,
                             const ReplaySet& set, xcluster::Lane lane,
                             size_t passes);

/// A ReplaySet sent to a server over one connection, pass after pass, from
/// the calling thread.
struct ServeResult {
  /// Server-side CPU time per query: each batch's median over the passes,
  /// summed, over the set's queries. Server-side is the process's CPU time
  /// less the calling thread's, so every other thread of the process must
  /// belong to the server (reactor, executor) while this runs.
  double cpu_us_per_query = 0.0;
  double wall_us_per_query = 0.0;  ///< median pass, round trips included
  size_t passes = 0;
  uint64_t queries = 0;            ///< every query sent, every pass
  uint64_t failed = 0;             ///< queries that came back with an error
  uint64_t mismatches = 0;         ///< ok slots differing from `expected`
  std::string error;               ///< first transport error
};

/// Sends `set` to the server at `port` at least `min_passes` times and
/// until `budget_s` has passed; every reply is checked bit for bit.
ServeResult ServePasses(uint16_t port, const ReplaySet& set,
                        xcluster::Lane lane, size_t min_passes,
                        double budget_s);

/// Shape of the queries a run sent.
struct StreamProperties {
  uint64_t queries = 0;
  uint64_t distinct = 0;
  uint64_t skeletons = 0;
};

StreamProperties MeasureStream(const QueryStream& stream,
                               const std::vector<uint64_t>& batches_sent,
                               uint64_t stream_base, size_t batch_size);

}  // namespace perfbench

#endif  // PERFBENCH_TRAFFIC_H_
