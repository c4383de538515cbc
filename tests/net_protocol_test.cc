/// Protocol-hardening tests for the wire codec and the server's session
/// layer: round-trips for every message, then the malformed matrix —
/// truncated frames, hostile length prefixes, partial reads, unknown tags,
/// version mismatches. Every case must end in a typed error or a clean
/// close, never a crash (CI runs this under ASan/UBSan and TSan).

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "tests/net_test_util.h"

namespace cloudviews {
namespace net {
namespace {

using testing_util::NetSubmit;
using testing_util::ServerFixture;
using testing_util::StartServerFixture;

// ---------------------------------------------------------------------------
// Codec round-trips

SubmitRequest FullSubmitRequest() {
  SubmitRequest req;
  req.script = "SELECT 1; -- {date}";
  req.params.push_back({"date", WireParamKind::kDate, "2024-06-30", 0});
  req.params.push_back({"limit", WireParamKind::kInt, "", -42});
  req.params.push_back({"tag", WireParamKind::kString, "blue", 0});
  req.template_id = "tmpl-7";
  req.cluster = "cosmos09";
  req.business_unit = "bing";
  req.vc = "vc-ads";
  req.user = "alice";
  req.recurring_instance = 17;
  req.recurrence_period_seconds = 3600;
  req.tags = {"daily", "p1"};
  req.enable_cloudviews = false;
  req.wait = false;
  return req;
}

TEST(WireCodec, SubmitRequestRoundTrip) {
  SubmitRequest req = FullSubmitRequest();
  WireWriter w;
  EncodeSubmitRequest(req, &w);
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmitRequest(w.bytes(), &out).ok());
  EXPECT_EQ(out.script, req.script);
  ASSERT_EQ(out.params.size(), 3u);
  EXPECT_EQ(out.params[0].name, "date");
  EXPECT_EQ(out.params[0].kind, WireParamKind::kDate);
  EXPECT_EQ(out.params[0].text, "2024-06-30");
  EXPECT_EQ(out.params[1].kind, WireParamKind::kInt);
  EXPECT_EQ(out.params[1].int_value, -42);
  EXPECT_EQ(out.params[2].text, "blue");
  EXPECT_EQ(out.template_id, "tmpl-7");
  EXPECT_EQ(out.cluster, "cosmos09");
  EXPECT_EQ(out.business_unit, "bing");
  EXPECT_EQ(out.vc, "vc-ads");
  EXPECT_EQ(out.user, "alice");
  EXPECT_EQ(out.recurring_instance, 17);
  EXPECT_EQ(out.recurrence_period_seconds, 3600);
  EXPECT_EQ(out.tags, (std::vector<std::string>{"daily", "p1"}));
  EXPECT_FALSE(out.enable_cloudviews);
  EXPECT_FALSE(out.wait);
}

JobOutcome FullOutcome() {
  JobOutcome o;
  o.job_id = 9;
  o.catalog_epoch = 4;
  o.output_rows = 1234;
  o.output_bytes = 56789;
  o.output_fingerprint = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  // Every table row gets a distinct non-default value (flags: true).
  ForEachJobCounter(o, [](size_t i, auto& value) {
    value = static_cast<std::decay_t<decltype(value)>>(i + 1);
  });
  o.plan_cache_hit = true;
  return o;
}

/// The counters of `c` as (field, value) pairs in table order.
std::vector<std::pair<std::string, int64_t>> CounterValues(
    const JobCounters& c) {
  std::vector<std::pair<std::string, int64_t>> values;
  ForEachJobCounter(c, [&values](size_t i, auto value) {
    values.emplace_back(kJobCounterInfo[i].field,
                        static_cast<int64_t>(value));
  });
  return values;
}

TEST(WireCodec, SubmitResultRoundTrip) {
  SubmitResultResponse resp;
  resp.ticket = 77;
  resp.outcome = FullOutcome();
  resp.timings = {0.125, 2.5, 0.001, 0.0005, 0.25, 1e9};
  WireWriter w;
  EncodeSubmitResultResponse(resp, &w);
  SubmitResultResponse out;
  ASSERT_TRUE(DecodeSubmitResultResponse(w.bytes(), &out).ok());
  EXPECT_EQ(out.ticket, 77u);
  EXPECT_EQ(EncodeJobOutcome(out.outcome), EncodeJobOutcome(resp.outcome));
  // Field by field too: a counter row that both the encoder and the
  // decoder skipped would still compare equal byte-wise.
  EXPECT_EQ(CounterValues(out.outcome), CounterValues(resp.outcome));
  EXPECT_EQ(out.outcome.output_fingerprint, resp.outcome.output_fingerprint);
  EXPECT_TRUE(out.outcome.plan_cache_hit);
  EXPECT_DOUBLE_EQ(out.timings.latency_seconds, 0.125);
  EXPECT_DOUBLE_EQ(out.timings.queue_seconds, 0.25);
  EXPECT_DOUBLE_EQ(out.timings.estimated_cost, 1e9);
}

TEST(WireCodec, StatusResultRoundTripFailedJob) {
  StatusResultResponse resp;
  resp.ticket = 5;
  resp.state = WireJobState::kFailed;
  resp.error_code = static_cast<uint8_t>(StatusCode::kNotFound);
  resp.error_message = "stream missing";
  WireWriter w;
  EncodeStatusResultResponse(resp, &w);
  StatusResultResponse out;
  ASSERT_TRUE(DecodeStatusResultResponse(w.bytes(), &out).ok());
  EXPECT_EQ(out.state, WireJobState::kFailed);
  EXPECT_EQ(out.error_code, static_cast<uint8_t>(StatusCode::kNotFound));
  EXPECT_EQ(out.error_message, "stream missing");
}

TEST(WireCodec, SmallMessagesRoundTrip) {
  {
    StatusQueryRequest req{0xdeadbeefcafef00dULL};
    WireWriter w;
    EncodeStatusQueryRequest(req, &w);
    StatusQueryRequest out;
    ASSERT_TRUE(DecodeStatusQueryRequest(w.bytes(), &out).ok());
    EXPECT_EQ(out.ticket, req.ticket);
  }
  {
    AcceptedResponse resp{31337};
    WireWriter w;
    EncodeAcceptedResponse(resp, &w);
    AcceptedResponse out;
    ASSERT_TRUE(DecodeAcceptedResponse(w.bytes(), &out).ok());
    EXPECT_EQ(out.ticket, 31337u);
  }
  {
    ProfileResultResponse resp;
    resp.ticket = 2;
    resp.profile_json = "{\"name\":\"net.request\"}";
    WireWriter w;
    EncodeProfileResultResponse(resp, &w);
    ProfileResultResponse out;
    ASSERT_TRUE(DecodeProfileResultResponse(w.bytes(), &out).ok());
    EXPECT_EQ(out.profile_json, resp.profile_json);
  }
  {
    ServerStatsResponse resp;
    resp.accepted = 1;
    resp.completed = 2;
    resp.failed = 3;
    resp.shed_queue_full = 4;
    resp.shed_conn_cap = 5;
    resp.shed_draining = 6;
    resp.shed_injected = 7;
    resp.queue_depth = 8;
    resp.inflight = 9;
    resp.connections = 10;
    WireWriter w;
    EncodeServerStatsResponse(resp, &w);
    ServerStatsResponse out;
    ASSERT_TRUE(DecodeServerStatsResponse(w.bytes(), &out).ok());
    EXPECT_EQ(out.shed_injected, 7u);
    EXPECT_EQ(out.connections, 10u);
  }
  {
    ErrorResponse resp{static_cast<uint8_t>(StatusCode::kParseError), "bad"};
    WireWriter w;
    EncodeErrorResponse(resp, &w);
    ErrorResponse out;
    ASSERT_TRUE(DecodeErrorResponse(w.bytes(), &out).ok());
    EXPECT_EQ(out.code, resp.code);
    EXPECT_EQ(out.message, "bad");
  }
  {
    RetryAfterResponse resp{ShedReason::kConnCap, 40};
    WireWriter w;
    EncodeRetryAfterResponse(resp, &w);
    RetryAfterResponse out;
    ASSERT_TRUE(DecodeRetryAfterResponse(w.bytes(), &out).ok());
    EXPECT_EQ(out.reason, ShedReason::kConnCap);
    EXPECT_EQ(out.retry_after_ms, 40u);
  }
}

// ---------------------------------------------------------------------------
// Frame header validation

TEST(WireFrame, HeaderRoundTrip) {
  std::string frame = EncodeFrame(MsgType::kSubmit, "abc");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 3);
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &h).ok());
  EXPECT_EQ(h.version, kProtocolVersion);
  EXPECT_EQ(h.type, static_cast<uint8_t>(MsgType::kSubmit));
  EXPECT_EQ(h.payload_len, 3u);
}

TEST(WireFrame, BadMagicIsAborted) {
  std::string frame = EncodeFrame(MsgType::kSubmit, "");
  frame[0] = 'X';
  FrameHeader h;
  EXPECT_EQ(DecodeFrameHeader(frame.data(), &h).code(), StatusCode::kAborted);
}

TEST(WireFrame, VersionMismatchIsUnimplemented) {
  std::string frame = EncodeFrame(MsgType::kSubmit, "");
  frame[2] = 9;
  FrameHeader h;
  EXPECT_EQ(DecodeFrameHeader(frame.data(), &h).code(),
            StatusCode::kUnimplemented);
}

TEST(WireFrame, OversizedLengthPrefixIsOutOfRange) {
  // A hostile ~4 GiB length prefix must be rejected at the header — before
  // any payload buffer exists.
  std::string frame = EncodeFrame(MsgType::kSubmit, "");
  frame[4] = '\xff';
  frame[5] = '\xff';
  frame[6] = '\xff';
  frame[7] = '\xff';
  FrameHeader h;
  EXPECT_EQ(DecodeFrameHeader(frame.data(), &h).code(),
            StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// Malformed payloads (codec level)

TEST(WireMalformed, TruncatedPayloadsAreParseErrors) {
  WireWriter w;
  EncodeSubmitRequest(FullSubmitRequest(), &w);
  const std::string& full = w.bytes();
  // Every proper prefix must fail cleanly — no UB, no partial accept.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    SubmitRequest out;
    Status st = DecodeSubmitRequest(full.substr(0, cut), &out);
    EXPECT_FALSE(st.ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(WireMalformed, TrailingBytesRejected) {
  WireWriter w;
  EncodeAcceptedResponse({1}, &w);
  std::string payload = w.bytes() + "junk";
  AcceptedResponse out;
  EXPECT_EQ(DecodeAcceptedResponse(payload, &out).code(),
            StatusCode::kParseError);
}

TEST(WireMalformed, HostileStringLengthRejectedBeforeAllocation) {
  // script length field claims 4 GiB inside a tiny buffer: the decoder must
  // reject on the declared length (kOutOfRange), not try Need()/assign().
  WireWriter w;
  w.U32(0xffffffffu);
  SubmitRequest out;
  EXPECT_EQ(DecodeSubmitRequest(w.bytes(), &out).code(),
            StatusCode::kOutOfRange);
}

TEST(WireMalformed, TooManyListItemsRejected) {
  WireWriter w;
  w.Str("script");
  w.U32(kMaxListItems + 1);  // param count
  SubmitRequest out;
  EXPECT_EQ(DecodeSubmitRequest(w.bytes(), &out).code(),
            StatusCode::kOutOfRange);
}

TEST(WireMalformed, BadEnumValuesRejected) {
  {
    WireWriter w;
    w.Str("script");
    w.U32(1);
    w.Str("p");
    w.U8(99);  // unknown WireParamKind
    SubmitRequest out;
    EXPECT_EQ(DecodeSubmitRequest(w.bytes(), &out).code(),
              StatusCode::kParseError);
  }
  {
    WireWriter w;
    w.U8(250);  // status code out of range
    w.Str("m");
    ErrorResponse out;
    EXPECT_EQ(DecodeErrorResponse(w.bytes(), &out).code(),
              StatusCode::kParseError);
  }
  {
    WireWriter w;
    w.U8(9);  // shed reason out of range
    w.U32(10);
    RetryAfterResponse out;
    EXPECT_EQ(DecodeRetryAfterResponse(w.bytes(), &out).code(),
              StatusCode::kParseError);
  }
  {
    WireWriter w;
    w.U8(7);  // bool must be 0/1
    std::string buf = w.bytes() + std::string(200, '\0');
    WireReader r(buf);  // reader borrows: the buffer must outlive it
    bool b = false;
    EXPECT_EQ(r.Bool(&b).code(), StatusCode::kParseError);
  }
}

// ---------------------------------------------------------------------------
// Session layer over real sockets

TEST(NetSession, GarbageMagicClosesSilently) {
  ServerFixture fx = StartServerFixture();
  auto sock = Socket::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(sock->SendAll("XYZZY!!!").ok());
  std::string byte;
  // The server closes without a reply: not our protocol, nothing to say.
  EXPECT_FALSE(sock->RecvExactly(1, &byte).ok());
  // And the server itself is still alive for well-behaved clients.
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->ServerStats().ok());
}

TEST(NetSession, VersionMismatchGetsTypedErrorThenClose) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  std::string frame = EncodeFrame(MsgType::kServerStats, "");
  frame[2] = static_cast<char>(kProtocolVersion + 1);  // future version
  ASSERT_TRUE(client->socket()->SendAll(frame).ok());
  FrameHeader h;
  std::string payload;
  ASSERT_TRUE(RecvFrame(client->socket(), &h, &payload).ok());
  ASSERT_EQ(h.type, static_cast<uint8_t>(MsgType::kError));
  ErrorResponse err;
  ASSERT_TRUE(DecodeErrorResponse(payload, &err).ok());
  EXPECT_EQ(err.code, static_cast<uint8_t>(StatusCode::kUnimplemented));
  // After the typed reply the connection closes.
  std::string byte;
  EXPECT_FALSE(client->socket()->RecvExactly(1, &byte).ok());
}

TEST(NetSession, OversizedPrefixGetsTypedErrorThenClose) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  std::string frame = EncodeFrame(MsgType::kSubmit, "");
  frame[7] = '\x7f';  // payload_len ~2 GiB; no payload follows
  ASSERT_TRUE(client->socket()->SendAll(frame).ok());
  FrameHeader h;
  std::string payload;
  // The reply arrives even though no payload was ever sent: the server
  // rejected on the header alone, without allocating or reading 2 GiB.
  ASSERT_TRUE(RecvFrame(client->socket(), &h, &payload).ok());
  ASSERT_EQ(h.type, static_cast<uint8_t>(MsgType::kError));
  ErrorResponse err;
  ASSERT_TRUE(DecodeErrorResponse(payload, &err).ok());
  EXPECT_EQ(err.code, static_cast<uint8_t>(StatusCode::kOutOfRange));
  std::string byte;
  EXPECT_FALSE(client->socket()->RecvExactly(1, &byte).ok());
}

TEST(NetSession, TruncatedFrameClosesWithoutCrash) {
  ServerFixture fx = StartServerFixture();
  {
    auto sock = Socket::Connect("127.0.0.1", fx.port);
    ASSERT_TRUE(sock.ok());
    std::string frame = EncodeFrame(MsgType::kSubmit, std::string(100, 'a'));
    // Send the header plus 10 of the promised 100 payload bytes, then
    // close: the server sees a truncated frame mid-read.
    ASSERT_TRUE(sock->SendAll(frame.substr(0, kFrameHeaderBytes + 10)).ok());
  }
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->ServerStats().ok());
}

TEST(NetSession, UnknownRequestTagKeepsConnection) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  auto resp = client->Roundtrip(static_cast<MsgType>(42), "");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kError);
  ErrorResponse err;
  ASSERT_TRUE(DecodeErrorResponse(resp->payload, &err).ok());
  EXPECT_EQ(err.code, static_cast<uint8_t>(StatusCode::kInvalidArgument));
  // Framing was intact, so the same connection keeps working.
  EXPECT_TRUE(client->ServerStats().ok());
}

TEST(NetSession, PartialReadsReassembled) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  WireWriter w;
  EncodeSubmitRequest(NetSubmit("tmpl-frag", "frag", "2024-01-01", 1), &w);
  std::string frame = EncodeFrame(MsgType::kSubmit, w.bytes());
  // Dribble the frame one byte per send(): the server's exact-read loop
  // must reassemble it regardless of how TCP segments the stream.
  for (size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(client->socket()->SendAll(frame.substr(i, 1)).ok());
  }
  FrameHeader h;
  std::string payload;
  ASSERT_TRUE(RecvFrame(client->socket(), &h, &payload).ok());
  ASSERT_EQ(h.type, static_cast<uint8_t>(MsgType::kSubmitResult));
  SubmitResultResponse result;
  ASSERT_TRUE(DecodeSubmitResultResponse(payload, &result).ok());
  EXPECT_GT(result.outcome.job_id, 0u);
  EXPECT_GT(result.outcome.output_rows, 0);
}

TEST(NetSession, MalformedSubmitPayloadGetsTypedError) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  auto resp = client->Roundtrip(MsgType::kSubmit, "\x01\x02\x03");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_TRUE(client->ServerStats().ok());
}

TEST(NetSession, ServerStatsRejectsNonEmptyPayload) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  auto resp = client->Roundtrip(MsgType::kServerStats, "x");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->type, MsgType::kError);
  ErrorResponse err;
  ASSERT_TRUE(DecodeErrorResponse(resp->payload, &err).ok());
  EXPECT_EQ(err.code, static_cast<uint8_t>(StatusCode::kParseError));
  EXPECT_TRUE(client->ServerStats().ok());
}

TEST(NetSession, UnknownTicketIsNotFound) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  auto status = client->QueryStatus(999999);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
  auto profile = client->FetchProfile(999999);
  ASSERT_FALSE(profile.ok());
  EXPECT_EQ(profile.status().code(), StatusCode::kNotFound);
}

TEST(NetSession, BadScriptGetsParserErrorNotCrash) {
  ServerFixture fx = StartServerFixture();
  auto client = Client::Connect("127.0.0.1", fx.port);
  ASSERT_TRUE(client.ok());
  SubmitRequest req = NetSubmit("tmpl-bad", "bad", "2024-01-01", 1);
  req.script = "THIS IS NOT SCOPESCRIPT ((((";
  auto reply = client->Submit(req);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->kind, Client::SubmitReply::Kind::kError);
  EXPECT_TRUE(client->ServerStats().ok());
}

}  // namespace
}  // namespace net
}  // namespace cloudviews
