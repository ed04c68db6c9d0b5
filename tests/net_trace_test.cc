// Protocol-v3 observability over a real socket: trace-context propagation
// from client through the server into the flight ring and span recorder,
// the trailing trace-id echo, the typed kStats/kFlight frames, and strict
// v1/v2 interop (old peers never see any v3 bytes).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/io/bytes.h"
#include "common/json.h"
#include "common/telemetry/telemetry.h"
#include "common/telemetry/trace.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/service.h"

namespace xcluster {
namespace net {
namespace {

XCluster MakeFixture() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 100.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

/// A frame client pinned to an arbitrary protocol version — simulates an
/// old (v1/v2) peer talking to a new server.
class PinnedClient {
 public:
  static void Connect(uint16_t port, uint32_t max_version,
                      std::unique_ptr<PinnedClient>* out) {
    Result<ScopedFd> fd = TcpConnect("127.0.0.1", port, 2000);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto client = std::unique_ptr<PinnedClient>(
        new PinnedClient(std::move(fd).value()));
    HelloRequest hello;
    hello.min_version = kProtocolMinVersion;
    hello.max_version = max_version;
    ASSERT_TRUE(client->Send(FrameType::kHello, EncodeHello(hello)).ok());
    Frame ack;
    ASSERT_TRUE(client->Read(&ack).ok());
    ASSERT_EQ(ack.type, FrameType::kHelloAck);
    Result<uint32_t> version = DecodeHelloAck(ack.payload);
    ASSERT_TRUE(version.ok());
    client->version_ = version.value();
    *out = std::move(client);
  }

  Status Send(FrameType type, const std::string& payload) {
    Frame frame;
    frame.type = type;
    frame.payload = payload;
    std::string wire;
    EncodeFrame(frame, &wire);
    return WriteAll(fd_.get(), wire.data(), wire.size());
  }

  Status Read(Frame* frame) {
    for (;;) {
      bool have_frame = false;
      XC_RETURN_IF_ERROR(decoder_.Next(frame, &have_frame));
      if (have_frame) return Status::OK();
      char chunk[4096];
      size_t got = 0;
      XC_RETURN_IF_ERROR(ReadSome(fd_.get(), chunk, sizeof(chunk), &got));
      if (got == 0) return Status::IOError("server closed the connection");
      decoder_.Feed(chunk, got);
    }
  }

  uint32_t version() const { return version_; }

 private:
  explicit PinnedClient(ScopedFd fd) : fd_(std::move(fd)) {}

  ScopedFd fd_;
  FrameDecoder decoder_{kDefaultMaxPayloadBytes};
  uint32_t version_ = 0;
};

class NetTraceTest : public ::testing::Test {
 protected:
  NetTraceTest() {
    ServiceOptions options;
    options.executor.num_threads = 2;
    options.flight_recorder_capacity = 64;
    service_ = std::make_unique<EstimationService>(options);
    service_->store().Install("books", MakeFixture());
  }

  void StartServer(double trace_sample = 0.0) {
    NetServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.trace_sample = trace_sample;
    server_ = std::make_unique<NetServer>(service_.get(), options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  NetClient ConnectOrDie() {
    Result<NetClient> client =
        NetClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<EstimationService> service_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetTraceTest, ClientTraceIdReachesFlightRingAndEchoesBack) {
  StartServer();
  NetClient client = ConnectOrDie();
  ASSERT_GE(client.negotiated_version(), kProtocolVersionTrace);

  BatchOptions options;
  options.trace.trace_id = 0x1122334455667788ull;
  options.trace.sampled = false;
  Result<BatchReplyFrame> reply =
      client.Batch("books", {"/A", "/A/B"}, options);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().trace_id, 0x1122334455667788ull);
  EXPECT_EQ(client.last_trace_id(), 0x1122334455667788ull);

  const std::vector<FlightRecord> records = service_->flight().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, 0x1122334455667788ull);
  EXPECT_EQ(records[0].queries, 2u);
  EXPECT_EQ(records[0].status, FlightStatus::kOk);
  EXPECT_GT(records[0].bytes, 0u);  // wire size of the request frame
}

TEST_F(NetTraceTest, ServerAssignsTraceIdWhenClientSendsNone) {
  StartServer();
  NetClient client = ConnectOrDie();
  Result<BatchReplyFrame> reply = client.Batch("books", {"/A"});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_NE(reply.value().trace_id, 0u);
  const std::vector<FlightRecord> records = service_->flight().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_id, reply.value().trace_id);
}

// Span *recording* is instrumentation and compiles out with telemetry;
// everything else in this file (trace ids, echoes, flight records, typed
// frames) is product behavior and runs in both configurations.
#if XCLUSTER_TELEMETRY_ENABLED
TEST_F(NetTraceTest, SampledBatchRecordsSpansCarryingTheTraceId) {
  telemetry::TraceRecorder recorder(1024);
  telemetry::TraceRecorder* previous = telemetry::GlobalTraceRecorder();
  telemetry::InstallGlobalTraceRecorder(&recorder);
  StartServer(/*trace_sample=*/1.0);
  {
    NetClient client = ConnectOrDie();
    BatchOptions options;
    options.trace.trace_id = 0xabcdef01ull;
    options.trace.sampled = true;
    Result<BatchReplyFrame> reply = client.Batch("books", {"/A"}, options);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  }
  server_->Stop();  // all request spans closed before we snapshot
  telemetry::InstallGlobalTraceRecorder(previous);

  std::set<std::string> names;
  for (const telemetry::TraceRecorder::Event& event :
       recorder.SnapshotEvents()) {
    if (event.trace_id == 0xabcdef01ull) names.insert(event.name);
  }
  // The request's path across layers: socket dispatch, admission,
  // executor task, estimation. The one-query batch is a one-lane group,
  // which BatchEstimator runs through the scalar DP, so the estimation
  // span is estimate.query rather than estimate.batch_group.
  EXPECT_TRUE(names.count("net.batch")) << names.size() << " span names";
  EXPECT_TRUE(names.count("admission.admit"));
  EXPECT_TRUE(names.count("executor.task"));
  EXPECT_TRUE(names.count("estimate.query"));
}
#endif  // XCLUSTER_TELEMETRY_ENABLED

TEST_F(NetTraceTest, V2PeerBatchHasNoTrailingEchoAndStillRecords) {
  StartServer();
  std::unique_ptr<PinnedClient> peer;
  ASSERT_NO_FATAL_FAILURE(
      PinnedClient::Connect(server_->port(), kProtocolVersionQos, &peer));
  ASSERT_EQ(peer->version(), kProtocolVersionQos);

  BatchRequestFrame request;
  request.collection = "books";
  request.queries = {"/A"};
  ASSERT_TRUE(peer->Send(FrameType::kBatch,
                         EncodeBatchRequest(request, peer->version()))
                  .ok());
  Frame reply;
  ASSERT_TRUE(peer->Read(&reply).ok());
  ASSERT_EQ(reply.type, FrameType::kBatchReply);
  Result<BatchReplyFrame> decoded = DecodeBatchReply(reply.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // No v3 echo for a v2 peer — the payload ends exactly where v2 says.
  EXPECT_EQ(decoded.value().trace_id, 0u);
  // The server still minted an id so the batch is findable in the ring.
  const std::vector<FlightRecord> records = service_->flight().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].trace_id, 0u);
}

TEST_F(NetTraceTest, ObservabilityFramesRejectedBelowV3) {
  StartServer();
  std::unique_ptr<PinnedClient> peer;
  ASSERT_NO_FATAL_FAILURE(
      PinnedClient::Connect(server_->port(), kProtocolVersionQos, &peer));

  ASSERT_TRUE(peer->Send(FrameType::kStats,
                         EncodeStatsRequest(StatsFormat::kPrometheus))
                  .ok());
  Frame reply;
  ASSERT_TRUE(peer->Read(&reply).ok());
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_NE(reply.payload.find("protocol v3"), std::string::npos)
      << reply.payload;
}

TEST_F(NetTraceTest, StatsScrapeAndFlightDumpRoundTrip) {
  StartServer();
  NetClient client = ConnectOrDie();
  Result<BatchReplyFrame> reply = client.Batch("books", {"/A"});
  ASSERT_TRUE(reply.ok());

  Result<std::string> prom = client.StatsScrape(StatsFormat::kPrometheus);
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  EXPECT_NE(prom.value().find("# TYPE"), std::string::npos);

  Result<std::string> json = client.StatsScrape(StatsFormat::kJson);
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(ParseJson(json.value()).ok());

  Result<std::string> flight = client.FlightDump();
  ASSERT_TRUE(flight.ok()) << flight.status().ToString();
  Result<JsonValue> parsed = ParseJson(flight.value());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* records = parsed.value().Find("flight_records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items().size(), 1u);
  EXPECT_EQ(records->items()[0].Find("trace_id")->as_string(),
            telemetry::TraceIdHex(reply.value().trace_id));
}

TEST(BatchRequestCodecTest, UnknownFlagBitsAreRejected) {
  std::string payload;
  StringSink sink(&payload);
  PutLengthPrefixed(&sink, "books");
  PutFixed64(&sink, 0);   // deadline
  PutFixed8(&sink, 8);    // bit3 is undefined in every protocol version
  PutVarint64(&sink, 0);  // no queries
  Result<BatchRequestFrame> decoded = DecodeBatchRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("unknown flags"),
            std::string::npos);
}

TEST(BatchRequestCodecTest, TraceFlagWithZeroIdIsRejected) {
  std::string payload;
  StringSink sink(&payload);
  PutLengthPrefixed(&sink, "books");
  PutFixed64(&sink, 0);  // deadline
  PutFixed8(&sink, 4);   // trace present...
  PutFixed64(&sink, 0);  // ...but id 0
  PutFixed8(&sink, 1);
  PutVarint64(&sink, 0);
  Result<BatchRequestFrame> decoded = DecodeBatchRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("zero id"), std::string::npos);
}

TEST(BatchRequestCodecTest, TraceContextRoundTripsAtV3Only) {
  BatchRequestFrame request;
  request.collection = "books";
  request.options.trace.trace_id = 0xfeed;
  request.options.trace.sampled = true;
  request.queries = {"/A"};

  Result<BatchRequestFrame> v3 =
      DecodeBatchRequest(EncodeBatchRequest(request, kProtocolVersionTrace));
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3.value().options.trace.trace_id, 0xfeedu);
  EXPECT_TRUE(v3.value().options.trace.sampled);

  // Encoding for a v2 peer silently drops the context (correctness never
  // depends on it), and the resulting bytes decode with no trace fields.
  Result<BatchRequestFrame> v2 =
      DecodeBatchRequest(EncodeBatchRequest(request, kProtocolVersionQos));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value().options.trace.trace_id, 0u);
}

}  // namespace
}  // namespace net
}  // namespace xcluster
