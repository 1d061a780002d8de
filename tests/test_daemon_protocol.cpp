// Protocol hardening tests for the mbspd wire format (docs/DAEMON.md):
// codec round-trips and offset-naming decode errors (pure, no sockets),
// then adversarial framing against a live in-process server — garbage
// magic, oversized and truncated frames, garbage payloads, mid-request
// disconnects. Every malformed input must produce a typed kError frame
// (or a clean connection close), never a crash, and the server must keep
// serving other clients afterwards.
#include <gtest/gtest.h>

#include <thread>

#include "src/daemon/client.hpp"
#include "src/daemon/protocol.hpp"
#include "src/daemon/server.hpp"
#include "src/workload/workload_registry.hpp"
#include "src/graph/dag_io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define MBSP_DAEMON_TESTS_POSIX 1
#endif

namespace mbsp::daemon {
namespace {

// ---------------------------------------------------------------------------
// Pure codec tests.

TEST(WireCodec, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);
  w.str("hello");
  w.blob(std::string(3, '\0'));

  WireReader r(w.bytes());
  std::uint8_t u8v;
  std::uint16_t u16v;
  std::uint32_t u32v;
  std::uint64_t u64v;
  std::int64_t i64v;
  double f64v;
  std::string strv, blobv;
  EXPECT_TRUE(r.u8(&u8v));
  EXPECT_TRUE(r.u16(&u16v));
  EXPECT_TRUE(r.u32(&u32v));
  EXPECT_TRUE(r.u64(&u64v));
  EXPECT_TRUE(r.i64(&i64v));
  EXPECT_TRUE(r.f64(&f64v));
  EXPECT_TRUE(r.str(&strv, "s"));
  EXPECT_TRUE(r.blob(&blobv, "b"));
  EXPECT_TRUE(r.expect_end());
  EXPECT_EQ(u8v, 7);
  EXPECT_EQ(u16v, 65535);
  EXPECT_EQ(u32v, 0xdeadbeefu);
  EXPECT_EQ(u64v, 0x0123456789abcdefULL);
  EXPECT_EQ(i64v, -42);
  EXPECT_EQ(f64v, 3.25);
  EXPECT_EQ(strv, "hello");
  EXPECT_EQ(blobv, std::string(3, '\0'));
}

TEST(WireCodec, TruncatedReadNamesTheByteOffset) {
  const std::string bytes = "\x01\x02";
  WireReader r(bytes);
  std::uint8_t u8v;
  EXPECT_TRUE(r.u8(&u8v));
  std::uint32_t u32v;
  EXPECT_FALSE(r.u32(&u32v));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("at byte 1"), std::string::npos) << r.error();
  // The error latches: further reads keep failing with the first message.
  EXPECT_FALSE(r.u8(&u8v));
  EXPECT_NE(r.error().find("at byte 1"), std::string::npos);
}

TEST(WireCodec, TruncatedStringNamesDeclaredLength) {
  WireWriter w;
  w.str("hello world");
  std::string bytes = w.take();
  bytes.resize(bytes.size() - 4);  // keep the prefix, drop payload bytes
  WireReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.str(&s, "greeting"));
  EXPECT_NE(r.error().find("greeting"), std::string::npos) << r.error();
  EXPECT_NE(r.error().find("at byte"), std::string::npos) << r.error();
}

TEST(WireCodec, TrailingGarbageIsAnError) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  WireReader r(w.bytes());
  std::uint8_t v;
  EXPECT_TRUE(r.u8(&v));
  EXPECT_FALSE(r.expect_end());
  EXPECT_NE(r.error().find("trailing garbage at byte 1"), std::string::npos)
      << r.error();
}

TEST(WireCodec, ScheduleRequestRoundTrips) {
  ScheduleRequest request;
  request.no_cache = true;
  request.dag_hash = 0x1122334455667788ULL;
  request.dag_bytes = std::string("\x00\x01\x02", 3);
  request.machine_spec = "numa:P=8,groups=2";
  request.scheduler = "lns-portfolio";
  request.cost_model = 1;
  request.budget_ms = 125.5;
  request.max_iterations = 123456789;
  request.seed = 99;
  request.deadline_ms = 2000;

  ScheduleRequest decoded;
  std::string error;
  ASSERT_TRUE(decode_schedule_request(encode_schedule_request(request),
                                      &decoded, &error))
      << error;
  EXPECT_EQ(decoded.version, request.version);
  EXPECT_EQ(decoded.no_cache, request.no_cache);
  EXPECT_EQ(decoded.dag_hash, request.dag_hash);
  EXPECT_EQ(decoded.dag_bytes, request.dag_bytes);
  EXPECT_EQ(decoded.machine_spec, request.machine_spec);
  EXPECT_EQ(decoded.scheduler, request.scheduler);
  EXPECT_EQ(decoded.cost_model, request.cost_model);
  EXPECT_EQ(decoded.budget_ms, request.budget_ms);
  EXPECT_EQ(decoded.max_iterations, request.max_iterations);
  EXPECT_EQ(decoded.seed, request.seed);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
}

TEST(WireCodec, TruncatedScheduleRequestNamesOffset) {
  ScheduleRequest request;
  request.dag_bytes = "some dag payload";
  const std::string full = encode_schedule_request(request);
  // Every strict prefix must fail with a typed offset-naming error, and
  // must never be accepted as a complete request.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ScheduleRequest decoded;
    std::string error;
    ASSERT_FALSE(
        decode_schedule_request(full.substr(0, cut), &decoded, &error))
        << "prefix of " << cut << " bytes decoded";
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
  }
}

TEST(WireCodec, FinalResultAndPlanRoundTripBitwise) {
  FinalResult fin;
  fin.dag_hash = 42;
  fin.machine = "uniform";
  fin.scheduler = "lns";
  fin.cost_model = 1;
  fin.cache = CacheStatus::kWarm;
  fin.cost = 123.5;
  fin.baseline_cost = 200;
  fin.io_volume = 17;
  fin.supersteps = 9;
  fin.plan.num_procs = 2;
  fin.plan.seq = {{{0, 0}, {2, 1}}, {{1, 0}}};

  FinalResult decoded;
  std::string error;
  ASSERT_TRUE(
      decode_final_result(encode_final_result(fin), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.cache, CacheStatus::kWarm);
  EXPECT_EQ(decoded.cost, fin.cost);
  EXPECT_EQ(decoded.supersteps, fin.supersteps);

  // "Bitwise identical plan" is byte equality of the deterministic plan
  // encoding; a round-trip must be a fixed point.
  WireWriter original, roundtripped;
  encode_plan(original, fin.plan);
  encode_plan(roundtripped, decoded.plan);
  EXPECT_EQ(original.bytes(), roundtripped.bytes());
}

TEST(WireCodec, SmallFramesRoundTrip) {
  std::string error;

  ProgressFrame progress{1, 77.5, 1234};
  ProgressFrame progress2;
  ASSERT_TRUE(decode_progress(encode_progress(progress), &progress2, &error));
  EXPECT_EQ(progress2.stage, 1);
  EXPECT_EQ(progress2.cost, 77.5);
  EXPECT_EQ(progress2.iterations, 1234);

  std::string message;
  ASSERT_TRUE(decode_status(encode_status("warm-start"), &message, &error));
  EXPECT_EQ(message, "warm-start");

  ErrorFrame err{WireError::kDeadlineExpired, "too slow"};
  ErrorFrame err2;
  ASSERT_TRUE(decode_error(encode_error(err), &err2, &error));
  EXPECT_EQ(err2.code, WireError::kDeadlineExpired);
  EXPECT_EQ(err2.message, "too slow");

  DaemonStats stats;
  stats.requests = 10;
  stats.exact_hits = 4;
  stats.cache_capacity = 256;
  DaemonStats stats2;
  ASSERT_TRUE(decode_stats(encode_stats(stats), &stats2, &error));
  EXPECT_EQ(stats2.requests, 10u);
  EXPECT_EQ(stats2.exact_hits, 4u);
  EXPECT_EQ(stats2.cache_capacity, 256u);
}

/// One op of every kind, with distinguishable payloads.
InstanceDelta delta_of_every_kind() {
  InstanceDelta delta;
  delta.add_node(2.5, 1.25);
  delta.add_edge(3, 9);
  delta.set_node_weight(4, 6.0, 2.0);
  delta.drop_processor(2);
  delta.shrink_memory(-1, 17.5);
  return delta;
}

TEST(WireCodec, InstanceDeltaRoundTripsAllOpKinds) {
  const InstanceDelta delta = delta_of_every_kind();
  WireWriter w;
  encode_instance_delta(w, delta);
  WireReader r(w.bytes());
  InstanceDelta decoded;
  ASSERT_TRUE(decode_instance_delta(r, &decoded));
  ASSERT_TRUE(r.expect_end());
  EXPECT_TRUE(decoded == delta);
  EXPECT_EQ(instance_delta_hash(decoded), instance_delta_hash(delta));
}

TEST(WireCodec, RepairRequestRoundTrips) {
  RepairRequest request;
  request.no_cache = true;
  request.dag_hash = 0x1122334455667788ULL;
  request.dag_bytes = std::string("\x00\x01\x02", 3);
  request.machine_spec = "hetero:speeds=1x2+2x2";
  request.scheduler = "lns-portfolio";
  request.cost_model = 1;
  request.budget_ms = 125.5;
  request.max_iterations = 123456789;
  request.seed = 99;
  request.deadline_ms = 2000;
  request.delta = delta_of_every_kind();

  RepairRequest decoded;
  std::string error;
  ASSERT_TRUE(decode_repair_request(encode_repair_request(request), &decoded,
                                    &error))
      << error;
  EXPECT_EQ(decoded.version, request.version);
  EXPECT_EQ(decoded.no_cache, request.no_cache);
  EXPECT_EQ(decoded.dag_hash, request.dag_hash);
  EXPECT_EQ(decoded.dag_bytes, request.dag_bytes);
  EXPECT_EQ(decoded.machine_spec, request.machine_spec);
  EXPECT_EQ(decoded.scheduler, request.scheduler);
  EXPECT_EQ(decoded.cost_model, request.cost_model);
  EXPECT_EQ(decoded.budget_ms, request.budget_ms);
  EXPECT_EQ(decoded.max_iterations, request.max_iterations);
  EXPECT_EQ(decoded.seed, request.seed);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_TRUE(decoded.delta == request.delta);
}

TEST(WireCodec, RepairRequestIsAScheduleRequestFollowedByItsDelta) {
  RepairRequest request;
  request.no_cache = true;
  request.dag_hash = 0x1122334455667788ULL;
  request.dag_bytes = std::string("\x00\x01\x02", 3);
  request.machine_spec = "hetero:speeds=1x2+2x2";
  request.scheduler = "lns-portfolio";
  request.budget_ms = 125.5;
  request.deadline_ms = 2000;
  request.delta = delta_of_every_kind();

  WireWriter delta;
  encode_instance_delta(delta, request.delta);
  EXPECT_EQ(encode_repair_request(request),
            encode_schedule_request(request) + delta.bytes());
}

TEST(WireCodec, TruncatedRepairRequestFailsAtEveryOffset) {
  RepairRequest request;
  request.dag_bytes = "some dag payload";
  request.delta = delta_of_every_kind();
  const std::string full = encode_repair_request(request);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    RepairRequest decoded;
    std::string error;
    ASSERT_FALSE(
        decode_repair_request(full.substr(0, cut), &decoded, &error))
        << "prefix of " << cut << " bytes decoded";
    EXPECT_NE(error.find("at byte"), std::string::npos) << error;
  }
}

TEST(WireCodec, UnknownDeltaOpKindIsASemanticError) {
  RepairRequest request;
  InstanceDelta delta;
  delta.add_node();
  request.delta = delta;
  std::string bytes = encode_repair_request(request);
  // The delta is encoded last: u32 op count, then one 49-byte op whose
  // first byte is the kind. Overwrite it with an undeclared value.
  constexpr std::size_t kOpBytes = 1 + 6 * 8;
  bytes[bytes.size() - kOpBytes] = '\x7f';
  RepairRequest decoded;
  std::string error;
  ASSERT_FALSE(decode_repair_request(bytes, &decoded, &error));
  EXPECT_NE(error.find("bad delta op kind"), std::string::npos) << error;
}

TEST(WireCodec, StatsRoundTripIncludesRepairCounters) {
  DaemonStats stats;
  stats.requests = 10;
  stats.solver_calls = 6;
  stats.repair_requests = 4;
  stats.repair_hits = 3;
  DaemonStats decoded;
  std::string error;
  ASSERT_TRUE(decode_stats(encode_stats(stats), &decoded, &error)) << error;
  EXPECT_EQ(decoded.requests, 10u);
  EXPECT_EQ(decoded.solver_calls, 6u);
  EXPECT_EQ(decoded.repair_requests, 4u);
  EXPECT_EQ(decoded.repair_hits, 3u);
}

TEST(WireCodec, FrameTypeSidedness) {
  EXPECT_TRUE(is_request_frame(FrameType::kScheduleRequest));
  EXPECT_TRUE(is_request_frame(FrameType::kPing));
  EXPECT_TRUE(is_request_frame(FrameType::kStatsRequest));
  EXPECT_TRUE(is_request_frame(FrameType::kRepairRequest));
  EXPECT_FALSE(is_request_frame(FrameType::kFinal));
  EXPECT_FALSE(is_request_frame(FrameType::kError));
  EXPECT_FALSE(is_request_frame(static_cast<FrameType>(0x7f)));
}

TEST(WireCodec, ErrorNamesAreStable) {
  EXPECT_STREQ(wire_error_name(WireError::kBadMagic), "bad-magic");
  EXPECT_STREQ(wire_error_name(WireError::kOversizedFrame),
               "oversized-frame");
  EXPECT_STREQ(wire_error_name(WireError::kDeadlineExpired),
               "deadline-expired");
  EXPECT_STREQ(wire_error_name(WireError::kBadDelta), "bad-delta");
  EXPECT_STREQ(cache_status_name(CacheStatus::kRepaired), "repaired");
}

#if defined(MBSP_DAEMON_TESTS_POSIX)

// ---------------------------------------------------------------------------
// Adversarial framing against a live server.

std::string test_socket_path() {
  static int counter = 0;
  return "/tmp/mbspd-proto-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

class ProtocolServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.socket_path = test_socket_path();
    options_.solver_threads = 2;
    options_.max_request_bytes = 1u << 16;  // small limit: easy to exceed
    server_ = std::make_unique<MbspdServer>(options_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override { server_->stop(); }

  /// The server must still answer a fresh client (the liveness probe run
  /// after every attack).
  void expect_server_alive() {
    MbspClient probe;
    std::string error;
    ASSERT_TRUE(probe.connect(options_.socket_path, &error)) << error;
    EXPECT_TRUE(probe.ping(&error)) << error;
  }

  ScheduleRequest tiny_request() {
    std::string error;
    auto dag = WorkloadRegistry::global().make_dag("fft:n=8", 7, &error);
    EXPECT_TRUE(dag) << error;
    ScheduleRequest request;
    request.dag_bytes = dag_to_binary(*dag);
    request.budget_ms = 0;
    request.max_iterations = 200;
    return request;
  }

  /// Sends `request` as a SCHEDULE frame, or as a REPAIR frame carrying a
  /// one-op add_node delta.
  static bool send(MbspClient& client, const ScheduleRequest& request,
                   bool repair, MbspClient::Outcome* outcome,
                   std::string* error) {
    if (!repair) return client.run(request, outcome, error);
    RepairRequest repair_request{request, {}};
    repair_request.delta.add_node();
    return client.repair(repair_request, outcome, error);
  }

  MbspdOptions options_;
  std::unique_ptr<MbspdServer> server_;
};

TEST_F(ProtocolServerTest, GarbageMagicGetsTypedErrorAndClose) {
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  ASSERT_TRUE(client.send_raw("XXXXXXXXXXXXXXXX", &error)) << error;

  Frame frame;
  ASSERT_TRUE(client.read_reply(&frame, &error)) << error;
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorFrame err;
  ASSERT_TRUE(decode_error(frame.payload, &err, &error)) << error;
  EXPECT_EQ(err.code, WireError::kBadMagic);
  EXPECT_NE(err.message.find("byte 0"), std::string::npos) << err.message;

  // Framing errors are unrecoverable: the server closes the connection.
  EXPECT_FALSE(client.read_reply(&frame, &error));
  expect_server_alive();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(ProtocolServerTest, OversizedFrameIsRejectedBeforeAllocation) {
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;

  // Valid header declaring a payload far beyond max_request_bytes.
  WireWriter header;
  header.u8('M');
  header.u8('B');
  header.u8('P');
  header.u8('D');
  header.u8(static_cast<std::uint8_t>(FrameType::kScheduleRequest));
  header.u32(64u << 20);
  ASSERT_TRUE(client.send_raw(header.bytes(), &error)) << error;

  Frame frame;
  ASSERT_TRUE(client.read_reply(&frame, &error)) << error;
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorFrame err;
  ASSERT_TRUE(decode_error(frame.payload, &err, &error)) << error;
  EXPECT_EQ(err.code, WireError::kOversizedFrame);
  EXPECT_NE(err.message.find("limit"), std::string::npos) << err.message;
  expect_server_alive();
}

TEST_F(ProtocolServerTest, NonRequestFrameTypeIsRejected) {
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  // kFinal is a server->client type; a client sending it is a protocol
  // error even though the type value itself is known.
  ASSERT_TRUE(client.send_raw(encode_frame(FrameType::kFinal, ""), &error));

  Frame frame;
  ASSERT_TRUE(client.read_reply(&frame, &error)) << error;
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorFrame err;
  ASSERT_TRUE(decode_error(frame.payload, &err, &error)) << error;
  EXPECT_EQ(err.code, WireError::kBadFrameType);
  expect_server_alive();
}

TEST_F(ProtocolServerTest, TruncatedFrameThenDisconnectLeavesServerAlive) {
  {
    MbspClient client;
    std::string error;
    ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
    // Header promises 100 payload bytes; deliver 10 and vanish.
    WireWriter partial;
    partial.u8('M');
    partial.u8('B');
    partial.u8('P');
    partial.u8('D');
    partial.u8(static_cast<std::uint8_t>(FrameType::kScheduleRequest));
    partial.u32(100);
    ASSERT_TRUE(client.send_raw(partial.bytes() + "0123456789", &error));
  }  // destructor closes mid-frame
  expect_server_alive();
}

TEST_F(ProtocolServerTest, GarbagePayloadKeepsConnectionUsable) {
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  // A well-framed request whose payload is not a ScheduleRequest: the
  // frame boundary is intact, so after the typed error the same
  // connection must still serve.
  ASSERT_TRUE(client.send_raw(
      encode_frame(FrameType::kScheduleRequest, "not a request"), &error));

  Frame frame;
  // The server answers "queued" only after a successful decode, so the
  // first reply here is the error frame itself.
  ASSERT_TRUE(client.read_reply(&frame, &error)) << error;
  ASSERT_EQ(frame.type, FrameType::kError);
  ErrorFrame err;
  ASSERT_TRUE(decode_error(frame.payload, &err, &error)) << error;
  EXPECT_EQ(err.code, WireError::kBadRequest);
  EXPECT_NE(err.message.find("at byte"), std::string::npos) << err.message;

  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST_F(ProtocolServerTest, MidRequestDisconnectDoesNotWedgeTheServer) {
  {
    MbspClient client;
    std::string error;
    ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
    ASSERT_TRUE(client.send_raw(
        encode_frame(FrameType::kScheduleRequest,
                     encode_schedule_request(tiny_request())),
        &error));
  }  // gone before the reply stream starts

  // The abandoned solve still completes and is memoized; the server keeps
  // serving, and the same request from a live client is an exact hit once
  // the orphaned solve lands.
  expect_server_alive();
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  MbspClient::Outcome outcome;
  ASSERT_TRUE(client.run(tiny_request(), &outcome, &error)) << error;
  ASSERT_TRUE(outcome.ok) << outcome.error.message;
}

TEST_F(ProtocolServerTest, UnsupportedVersionGetsTypedError) {
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  ScheduleRequest request = tiny_request();
  request.version = 9;
  MbspClient::Outcome outcome;
  ASSERT_TRUE(client.run(request, &outcome, &error)) << error;
  ASSERT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error.code, WireError::kBadVersion);
}

TEST_F(ProtocolServerTest, BadRequestFieldsGetTypedErrors) {
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;

  // SCHEDULE and REPAIR frames share one request pipeline: every bad
  // field gets the same typed error on either frame.
  for (const bool repair : {false, true}) {
    SCOPED_TRACE(repair ? "REPAIR frame" : "SCHEDULE frame");
    MbspClient::Outcome outcome;

    ScheduleRequest bad_version = tiny_request();
    bad_version.version = 9;
    ASSERT_TRUE(send(client, bad_version, repair, &outcome, &error)) << error;
    ASSERT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error.code, WireError::kBadVersion);

    ScheduleRequest bad_scheduler = tiny_request();
    bad_scheduler.scheduler = "no-such-scheduler";
    ASSERT_TRUE(send(client, bad_scheduler, repair, &outcome, &error))
        << error;
    ASSERT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error.code, WireError::kUnknownScheduler);
    EXPECT_NE(outcome.error.message.find("no-such-scheduler"),
              std::string::npos);

    ScheduleRequest bad_machine = tiny_request();
    bad_machine.machine_spec = "no-such-machine:P=4";
    ASSERT_TRUE(send(client, bad_machine, repair, &outcome, &error)) << error;
    ASSERT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error.code, WireError::kBadMachineSpec);

    ScheduleRequest bad_dag = tiny_request();
    bad_dag.dag_bytes = "this is not a dag";
    ASSERT_TRUE(send(client, bad_dag, repair, &outcome, &error)) << error;
    ASSERT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error.code, WireError::kBadDag);

    ScheduleRequest unknown_hash = tiny_request();
    unknown_hash.dag_bytes.clear();
    unknown_hash.dag_hash = 0xdeadbeefdeadbeefULL;
    ASSERT_TRUE(send(client, unknown_hash, repair, &outcome, &error))
        << error;
    ASSERT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error.code, WireError::kUnknownDagHash);
    EXPECT_NE(outcome.error.message.find("resend"), std::string::npos)
        << "the error must tell the client how to recover";
  }

  // The connection survived every typed error.
  EXPECT_TRUE(client.ping(&error)) << error;
}

TEST_F(ProtocolServerTest, PinnedHashMismatchIsRejected) {
  MbspClient client;
  std::string error;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  for (const bool repair : {false, true}) {
    SCOPED_TRACE(repair ? "REPAIR frame" : "SCHEDULE frame");
    ScheduleRequest request = tiny_request();
    request.dag_hash = 0x1234;  // wrong pin for the inline DAG
    MbspClient::Outcome outcome;
    ASSERT_TRUE(send(client, request, repair, &outcome, &error)) << error;
    ASSERT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.error.code, WireError::kBadDag);
    EXPECT_NE(outcome.error.message.find("pinned"), std::string::npos)
        << outcome.error.message;
  }
}

TEST_F(ProtocolServerTest, TruncatedRepairFrameAtEveryOffsetNeverCrashes) {
  RepairRequest request;
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag("fft:n=8", 7, &error);
  ASSERT_TRUE(dag) << error;
  request.dag_bytes = dag_to_binary(*dag);
  request.budget_ms = 0;
  request.max_iterations = 100;
  request.delta.add_node(2.0, 1.0);
  request.delta.add_edge(0, dag->num_nodes());
  const std::string frame =
      encode_frame(FrameType::kRepairRequest, encode_repair_request(request));

  // Cut the raw frame at every byte offset, send the prefix, vanish. The
  // server must treat every one as a truncated frame / clean close and
  // keep serving (sampled liveness probes keep the test fast; the final
  // probe covers the whole sweep).
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    MbspClient attacker;
    ASSERT_TRUE(attacker.connect(options_.socket_path, &error)) << error;
    if (cut > 0) {
      ASSERT_TRUE(attacker.send_raw(frame.substr(0, cut), &error))
          << "cut " << cut << ": " << error;
    }
    attacker.close();
    if (cut % 64 == 0) expect_server_alive();
  }
  expect_server_alive();

  // Well-framed frames whose *declared* payload is a strict prefix of the
  // real payload: the decode fails with a typed error and the connection
  // stays usable.
  const std::string payload = encode_repair_request(request);
  for (std::size_t cut = 0; cut < payload.size(); cut += 13) {
    MbspClient client;
    ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
    ASSERT_TRUE(client.send_raw(
        encode_frame(FrameType::kRepairRequest, payload.substr(0, cut)),
        &error));
    Frame reply;
    ASSERT_TRUE(client.read_reply(&reply, &error)) << "cut " << cut << ": "
                                                   << error;
    ASSERT_EQ(reply.type, FrameType::kError) << "cut " << cut;
    ErrorFrame err;
    ASSERT_TRUE(decode_error(reply.payload, &err, &error)) << error;
    EXPECT_EQ(err.code, WireError::kBadRequest) << "cut " << cut;
    EXPECT_TRUE(client.ping(&error)) << "cut " << cut << ": " << error;
  }
  expect_server_alive();
}

TEST_F(ProtocolServerTest, TamperedDeltaOpKindOverTheWireIsBadDelta) {
  RepairRequest request;
  std::string error;
  auto dag = WorkloadRegistry::global().make_dag("fft:n=8", 7, &error);
  ASSERT_TRUE(dag) << error;
  request.dag_bytes = dag_to_binary(*dag);
  request.delta.add_node();
  std::string payload = encode_repair_request(request);
  constexpr std::size_t kOpBytes = 1 + 6 * 8;
  payload[payload.size() - kOpBytes] = '\x7f';  // undeclared op kind

  MbspClient client;
  ASSERT_TRUE(client.connect(options_.socket_path, &error)) << error;
  ASSERT_TRUE(client.send_raw(
      encode_frame(FrameType::kRepairRequest, payload), &error));
  Frame reply;
  ASSERT_TRUE(client.read_reply(&reply, &error)) << error;
  ASSERT_EQ(reply.type, FrameType::kError);
  ErrorFrame err;
  ASSERT_TRUE(decode_error(reply.payload, &err, &error)) << error;
  EXPECT_EQ(err.code, WireError::kBadDelta);
  EXPECT_NE(err.message.find("bad delta op kind"), std::string::npos)
      << err.message;
  EXPECT_TRUE(client.ping(&error)) << error;
}

#endif  // MBSP_DAEMON_TESTS_POSIX

}  // namespace
}  // namespace mbsp::daemon
