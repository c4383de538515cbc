/// Protocol-hardening tests for the wire codec and the server's session
/// layer: round-trips for every message, then the malformed matrix —
/// truncated frames, hostile length prefixes, partial reads, unknown tags,
/// version mismatches. Every case must end in a typed error or a clean
/// close, never a crash (CI runs this under ASan/UBSan and TSan).

#include <cstdlib>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/outcome.h"
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
// The v2 layout, pinned byte for byte

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

std::string Unhex(std::string_view hex) {
  auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes += static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1]));
  }
  return bytes;
}

/// Every field set, every counter row non-zero (one negative), so a field
/// that the encoder or decoder skipped or reordered changes the bytes.
JobOutcome GoldenOutcome() {
  JobOutcome o;
  o.job_id = 0x0102030405060708ULL;
  o.catalog_epoch = 0xfffffffffffffffeULL;
  o.output_rows = -5;
  o.output_bytes = int64_t{1} << 40;
  o.output_fingerprint = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  ForEachJobCounter(o, [](size_t i, auto& value) {
    value = static_cast<std::decay_t<decltype(value)>>(i + 1);
  });
  o.views_reused = -2;
  o.plan_cache_hit = true;
  return o;
}

WireTimings GoldenTimings() {
  return {-0.5, std::numeric_limits<double>::quiet_NaN(), 1e300, -0.0,
          std::numeric_limits<double>::infinity(), 2.5};
}

/// One of the eleven payloads: its golden encoding, the hex that pins it,
/// and its decoder followed by its encoder.
struct Payload {
  std::string name;
  std::string encoded;
  std::string golden_hex;
  std::function<Status(std::string_view, std::string*)> reencode;
};

template <typename Msg>
Payload MakePayload(std::string name, const Msg& golden,
                    void (*encode)(const Msg&, WireWriter*),
                    Status (*decode)(std::string_view, Msg*),
                    std::string golden_hex) {
  WireWriter w;
  encode(golden, &w);
  return {std::move(name), w.Take(), std::move(golden_hex),
          [encode, decode](std::string_view bytes, std::string* out) {
            Msg msg;
            Status st = decode(bytes, &msg);
            if (!st.ok()) return st;
            WireWriter again;
            encode(msg, &again);
            *out = again.Take();
            return Status::OK();
          }};
}

/// The v2 encoding of each golden payload, 32 bytes a line.
constexpr char kSubmitHex[] =
    "140000004f5554505554206120544f20226f5f7b647d223b0300000001000000"
    "64000a000000323032342d30362d33300000000000000000010000006e010000"
    "0000f9ffffffffffffff010000007302070000005ac3bc726963680000000000"
    "00000005000000742de697a50000000002000000627502000000766300000000"
    "fdffffffffffffff80510100000000000200000000000000050000006461696c"
    "790100";
constexpr char kStatusQueryHex[] = "0df0fecaefbeadde";
constexpr char kProfileFetchHex[] = "0100000000000000";
constexpr char kOutcomeHex[] =
    "0807060504030201fefffffffffffffffbffffffffffffff0000000000010000"
    "efcdab89674523011032547698badcfefeffffff020000000300000004000000"
    "05000000060000000700000008000000090000000a0000000b000000010d0000"
    "000e0000000f0000001000000001";
constexpr char kSubmitResultHex[] =
    "4d000000000000000807060504030201fefffffffffffffffbffffffffffffff"
    "0000000000010000efcdab89674523011032547698badcfefeffffff02000000"
    "030000000400000005000000060000000700000008000000090000000a000000"
    "0b000000010d0000000e0000000f0000001000000001000000000000e0bf0000"
    "00000000f87f9c7500883ce4377e0000000000000080000000000000f07f0000"
    "000000000440";
constexpr char kAcceptedHex[] = "ffffffffffffffff";
constexpr char kStatusResultHex[] =
    "0500000000000000030807060504030201fefffffffffffffffbffffffffffff"
    "ff0000000000010000efcdab89674523011032547698badcfefeffffff020000"
    "00030000000400000005000000060000000700000008000000090000000a0000"
    "000b000000010d0000000e0000000f0000001000000001000000000000e0bf00"
    "0000000000f87f9c7500883ce4377e0000000000000080000000000000f07f00"
    "000000000004400c0d0000007669657720e2809420676f6e65";
constexpr char kProfileResultHex[] = "030000000000000000000000";
constexpr char kServerStatsHex[] =
    "0100000000000010020000000000001003000000000000100400000000000010"
    "0500000000000010060000000000001007000000000000100800000000000010"
    "09000000000000100a00000000000010";
constexpr char kErrorHex[] = "0c05000000636166c3a9";
constexpr char kRetryAfterHex[] = "03feffffff";

std::vector<Payload> GoldenPayloads() {
  std::vector<Payload> payloads;

  SubmitRequest submit;
  submit.script = "OUTPUT a TO \"o_{d}\";";
  submit.params = {{"d", WireParamKind::kDate, "2024-06-30", 0},
                   {"n", WireParamKind::kInt, "", -7},
                   {"s", WireParamKind::kString, "Z\xc3\xbcrich", 0}};
  submit.template_id = "t-\xe6\x97\xa5";
  submit.cluster = "";
  submit.business_unit = "bu";
  submit.vc = "vc";
  submit.user = "";
  submit.recurring_instance = -3;
  submit.recurrence_period_seconds = 86400;
  submit.tags = {"", "daily"};
  submit.enable_cloudviews = true;
  submit.wait = false;
  payloads.push_back(MakePayload(
      "SUBMIT", submit, EncodeSubmitRequest, DecodeSubmitRequest, kSubmitHex));

  payloads.push_back(MakePayload(
      "STATUS_QUERY", StatusQueryRequest{0xdeadbeefcafef00dULL},
      EncodeStatusQueryRequest, DecodeStatusQueryRequest, kStatusQueryHex));
  payloads.push_back(MakePayload("PROFILE_FETCH", ProfileFetchRequest{1},
                                 EncodeProfileFetchRequest,
                                 DecodeProfileFetchRequest, kProfileFetchHex));

  // JobOutcome has no decoder of its own: it is decoded inside a
  // SUBMIT_RESULT between a zero ticket and zero timings.
  payloads.push_back(
      {"JobOutcome", EncodeJobOutcome(GoldenOutcome()), kOutcomeHex,
       [](std::string_view bytes, std::string* out) {
         SubmitResultResponse resp;
         Status st = DecodeSubmitResultResponse(
             std::string(8, '\0') + std::string(bytes) + std::string(48, '\0'),
             &resp);
         if (st.ok()) *out = EncodeJobOutcome(resp.outcome);
         return st;
       }});

  SubmitResultResponse result;
  result.ticket = 77;
  result.outcome = GoldenOutcome();
  result.timings = GoldenTimings();
  payloads.push_back(MakePayload("SUBMIT_RESULT", result,
                                 EncodeSubmitResultResponse,
                                 DecodeSubmitResultResponse, kSubmitResultHex));

  payloads.push_back(MakePayload("ACCEPTED", AcceptedResponse{~uint64_t{0}},
                                 EncodeAcceptedResponse,
                                 DecodeAcceptedResponse, kAcceptedHex));

  StatusResultResponse status;
  status.ticket = 5;
  status.state = WireJobState::kFailed;
  status.outcome = GoldenOutcome();
  status.timings = GoldenTimings();
  status.error_code = static_cast<uint8_t>(StatusCode::kViewUnavailable);
  status.error_message = "view \xe2\x80\x94 gone";
  payloads.push_back(MakePayload("STATUS_RESULT", status,
                                 EncodeStatusResultResponse,
                                 DecodeStatusResultResponse, kStatusResultHex));

  payloads.push_back(MakePayload("PROFILE_RESULT",
                                 ProfileResultResponse{3, ""},
                                 EncodeProfileResultResponse,
                                 DecodeProfileResultResponse,
                                 kProfileResultHex));

  ServerStatsResponse stats;
  uint64_t next = 0x1000000000000001ULL;
  for (uint64_t* field :
       {&stats.accepted, &stats.completed, &stats.failed,
        &stats.shed_queue_full, &stats.shed_conn_cap, &stats.shed_draining,
        &stats.shed_injected, &stats.queue_depth, &stats.inflight,
        &stats.connections}) {
    *field = next++;
  }
  payloads.push_back(MakePayload("SERVER_STATS_RESULT", stats,
                                 EncodeServerStatsResponse,
                                 DecodeServerStatsResponse, kServerStatsHex));

  payloads.push_back(MakePayload(
      "ERROR",
      ErrorResponse{static_cast<uint8_t>(StatusCode::kViewUnavailable),
                    "caf\xc3\xa9"},
      EncodeErrorResponse, DecodeErrorResponse, kErrorHex));
  payloads.push_back(MakePayload(
      "RETRY_AFTER", RetryAfterResponse{ShedReason::kInjected, 0xfffffffeu},
      EncodeRetryAfterResponse, DecodeRetryAfterResponse, kRetryAfterHex));
  return payloads;
}

TEST(WireCodec, GoldenBytes) {
  ASSERT_EQ(kProtocolVersion, 2);
  std::vector<Payload> payloads = GoldenPayloads();
  ASSERT_EQ(payloads.size(), 11u);
  for (const Payload& p : payloads) {
    SCOPED_TRACE(p.name);
    EXPECT_EQ(Hex(p.encoded), p.golden_hex);
    std::string reencoded;
    EXPECT_TRUE(p.reencode(Unhex(p.golden_hex), &reencoded).ok());
    EXPECT_EQ(Hex(reencoded), p.golden_hex);
  }
}

TEST(WireCodec, StatusResultRefusesAnUnknownErrorCode) {
  StatusResultResponse status;
  status.state = WireJobState::kFailed;
  status.error_code = static_cast<uint8_t>(StatusCode::kViewUnavailable);
  WireWriter w;
  EncodeStatusResultResponse(status, &w);
  std::string bytes = w.Take();
  // error_code is the byte before the trailing empty error_message.
  const size_t code_at = bytes.size() - 5;
  StatusResultResponse out;
  ASSERT_TRUE(DecodeStatusResultResponse(bytes, &out).ok());
  for (uint8_t code : {uint8_t{13}, uint8_t{255}}) {
    bytes[code_at] = static_cast<char>(code);
    EXPECT_EQ(DecodeStatusResultResponse(bytes, &out).code(),
              StatusCode::kParseError)
        << "error_code " << static_cast<int>(code);
  }
}

uint64_t SeedFromEnv() {
  const char* env = std::getenv("CV_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// Decodes `bytes` with `p`'s decoder: it must return OK or a typed
/// refusal, and an OK decode must re-encode to exactly `bytes`.
void ExpectDecodesOrRefuses(const Payload& p, const std::string& bytes,
                            const std::string& mutation) {
  std::string reencoded;
  Status st = p.reencode(bytes, &reencoded);
  if (st.ok()) {
    EXPECT_EQ(Hex(reencoded), Hex(bytes)) << p.name << " " << mutation;
  } else {
    EXPECT_TRUE(st.code() == StatusCode::kParseError ||
                st.code() == StatusCode::kOutOfRange)
        << p.name << " " << mutation << ": " << st.ToString();
  }
}

std::string WithU32At(std::string bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(WireCodec, MutatedPayloadsDecodeOrRefuse) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE("CV_FAULT_SEED=" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  constexpr int kMutationsPerPayload = 2000;
  for (const Payload& p : GoldenPayloads()) {
    const std::string& golden = p.encoded;
    // A hostile length or count at every offset, so each str length and
    // list count of the layout is hit without the test knowing the layout.
    for (uint32_t hostile : {kMaxStringBytes + 1, 0xffffffffu,
                             kMaxListItems + 1}) {
      for (size_t at = 0; at + 4 <= golden.size(); ++at) {
        ExpectDecodesOrRefuses(p, WithU32At(golden, at, hostile),
                               "u32 " + std::to_string(hostile) + " at " +
                                   std::to_string(at));
      }
    }
    for (int m = 0; m < kMutationsPerPayload; ++m) {
      std::string bytes = golden;
      std::string what;
      const int flips = 1 + static_cast<int>(rng() % 3);
      switch (rng() % 4) {
        case 0:
          for (int f = 0; f < flips && !bytes.empty(); ++f) {
            size_t bit = rng() % (bytes.size() * 8);
            bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << bit % 8));
            what += " flip " + std::to_string(bit);
          }
          break;
        case 1:
          bytes.resize(rng() % (bytes.size() + 1));
          what = " truncate to " + std::to_string(bytes.size());
          break;
        case 2:
          for (int f = 0; f < flips; ++f) {
            bytes += static_cast<char>(rng() & 0xff);
          }
          what = " append " + std::to_string(flips);
          break;
        default: {
          // A flip, then a cut: a corrupted field near the end.
          size_t bit = rng() % (bytes.size() * 8);
          bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << bit % 8));
          bytes.resize(bytes.size() - rng() % (bytes.size() / 2 + 1));
          what = " flip " + std::to_string(bit) + " truncate to " +
                 std::to_string(bytes.size());
        }
      }
      ExpectDecodesOrRefuses(p, bytes, "mutation " + std::to_string(m) + what);
    }
  }
}

// ---------------------------------------------------------------------------
// Output fingerprint

/// FingerprintStream as written over boxed cells: the reference the typed
/// version must equal on every input.
Hash128 BoxedFingerprint(const StreamData& stream) {
  HashBuilder hb;
  hb.Add(std::string_view("stream-fingerprint-v1"));
  hb.Add(static_cast<uint64_t>(stream.schema.num_fields()));
  for (const Field& f : stream.schema.fields()) {
    hb.Add(std::string_view(f.name));
    hb.Add(static_cast<uint64_t>(f.type));
  }
  for (const Batch& batch : stream.batches) {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < batch.num_columns(); ++c) {
        const Column& col = batch.column(c);
        if (col.IsNull(r)) {
          hb.Add(std::string_view("null"));
        } else {
          col.GetValue(r).HashInto(&hb);
        }
      }
    }
  }
  return hb.Finish();
}

TEST(WireOutcome, FingerprintHashesTypedCellsAsTheBoxedValues) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  StreamData stream;
  stream.schema = Schema({{"b", DataType::kBool},
                          {"i", DataType::kInt64},
                          {"d", DataType::kDouble},
                          {"s", DataType::kString},
                          {"t", DataType::kDate}});
  // Every type with a null, the int64 and date extremes, NaN, ±0.0, ±inf,
  // and empty, non-ASCII and long strings, over two batches and an empty
  // one.
  const std::vector<std::vector<std::vector<Value>>> batches = {
      {{Value::Bool(true), Value::Int64(kMin), Value::Double(kNaN),
        Value::String(""), Value::Date(kMin)},
       {Value::Bool(false), Value::Int64(kMax), Value::Double(-0.0),
        Value::String("a"), Value::Date(kMax)},
       {Value::Null(DataType::kBool), Value::Int64(0), Value::Double(0.0),
        Value::Null(DataType::kString), Value::Date(0)}},
      {},
      {{Value::Bool(true), Value::Null(DataType::kInt64),
        Value::Null(DataType::kDouble),
        Value::String("a long string past the inline size"),
        Value::Null(DataType::kDate)},
       {Value::Bool(false), Value::Int64(-1), Value::Double(-kInf),
        Value::String("\xff"), Value::Date(17532)},
       {Value::Bool(true), Value::Int64(1), Value::Double(kInf),
        Value::String(""), Value::Date(-1)}},
  };
  for (const auto& rows : batches) {
    Batch batch(stream.schema);
    for (const auto& row : rows) ASSERT_TRUE(batch.AppendRow(row).ok());
    stream.batches.push_back(std::move(batch));
  }
  const Hash128 fingerprint = FingerprintStream(stream);
  EXPECT_EQ(fingerprint, BoxedFingerprint(stream));

  // Every cell reaches the hash: a null turned into a zero changes it.
  StreamData zeroed = stream;
  zeroed.batches[0] = Batch(stream.schema);
  for (auto row : batches[0]) {
    if (row[0].is_null()) row[0] = Value::Bool(false);
    ASSERT_TRUE(zeroed.batches[0].AppendRow(row).ok());
  }
  EXPECT_NE(FingerprintStream(zeroed), fingerprint);
  EXPECT_EQ(FingerprintStream(zeroed), BoxedFingerprint(zeroed));
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

TEST(NetSession, ClientRefusesAnErrorReplyWithAnOkCode) {
  // A peer answering kError with status code 0 must not become an OK
  // Status (a Result built from one aborts): the typed call refuses it.
  auto listener = Socket::Listen("127.0.0.1", 0, 1);
  ASSERT_TRUE(listener.ok());
  auto port = listener->BoundPort();
  ASSERT_TRUE(port.ok());
  std::thread peer([&listener] {
    auto conn = listener->Accept();
    FrameHeader h;
    std::string payload;
    if (!conn.ok() || !RecvFrame(&*conn, &h, &payload).ok()) return;
    WireWriter w;
    EncodeErrorResponse({0, "not an error"}, &w);
    (void)SendFrame(&*conn, MsgType::kError, w.bytes());
  });
  auto client = Client::Connect("127.0.0.1", *port);
  Result<ServerStatsResponse> stats =
      client.ok() ? client->ServerStats()
                  : Result<ServerStatsResponse>(client.status());
  listener->ShutdownBoth();
  peer.join();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kParseError);
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
