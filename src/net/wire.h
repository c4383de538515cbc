#ifndef CLOUDVIEWS_NET_WIRE_H_
#define CLOUDVIEWS_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "optimizer/job_counters.h"

namespace cloudviews {
namespace net {

/// \file
/// Versioned length-prefixed binary protocol for the job-service front
/// door (docs/wire_protocol.md is the normative description).
///
/// Frame layout (all integers little-endian):
///
///   offset 0  'C'                magic byte 0
///   offset 1  'V'                magic byte 1
///   offset 2  version (u8)       kProtocolVersion
///   offset 3  type (u8)          MsgType
///   offset 4  payload_len (u32)  must be <= kMaxPayloadBytes
///   offset 8  payload bytes
///
/// The length prefix is validated against kMaxPayloadBytes *before* any
/// payload allocation, so a hostile 4 GiB prefix cannot balloon memory.

inline constexpr char kMagic0 = 'C';
inline constexpr char kMagic1 = 'V';
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 8;
/// Generous for scripts and profiles, small enough to bound per-connection
/// memory: 8 MiB.
inline constexpr uint32_t kMaxPayloadBytes = 8u << 20;
/// Individual strings inside a payload are capped tighter than the frame so
/// a single hostile length field inside a valid frame cannot oversize.
inline constexpr uint32_t kMaxStringBytes = 4u << 20;
/// Bound on repeated elements (params, tags) per message.
inline constexpr uint32_t kMaxListItems = 1024;

/// Message type tags. Requests are < 128, responses >= 128; the error and
/// retry-after responses can answer any request type.
enum class MsgType : uint8_t {
  kSubmit = 1,
  kStatusQuery = 2,
  kProfileFetch = 3,
  kServerStats = 4,

  kSubmitResult = 129,
  kAccepted = 130,
  kStatusResult = 131,
  kProfileResult = 132,
  kServerStatsResult = 133,
  kError = 192,
  kRetryAfter = 193,
};

/// \brief Append-only little-endian payload encoder.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Bounds-checked little-endian payload decoder over a borrowed
/// buffer. Every read returns a Status; a short buffer yields kParseError
/// rather than UB.
class WireReader {
 public:
  explicit WireReader(std::string_view buf) : buf_(buf) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);
  Status Bool(bool* v);
  Status Str(std::string* s);

  size_t remaining() const { return buf_.size() - pos_; }
  /// Decoders call this last: trailing junk is a malformed message.
  Status ExpectEnd() const;

 private:
  Status Need(size_t n) const;
  std::string_view buf_;
  size_t pos_ = 0;
};

struct FrameHeader {
  uint8_t version = 0;
  uint8_t type = 0;
  uint32_t payload_len = 0;
};

/// Builds a complete frame (header + payload) ready to send.
std::string EncodeFrame(MsgType type, std::string_view payload);

/// Parses and validates the fixed 8-byte header. Distinguishes failure
/// classes so the session layer can pick a reply-then-close vs a silent
/// close:
///  - kAborted:       bad magic — not our protocol, close without a reply
///  - kUnimplemented: version mismatch — reply kError then close
///  - kOutOfRange:    payload_len > kMaxPayloadBytes — reply then close
Status DecodeFrameHeader(const char* bytes, FrameHeader* out);

// ---------------------------------------------------------------------------
// Messages. Each struct names its frame tag in kType; its fields' wire
// order is its field list in wire.cc, the one definition of the layout
// (docs/wire_protocol.md describes it, net_protocol_test pins it).
//
// An enum travels as a u8 and decoding refuses a value above the enum's
// LastEnumerator, declared next to the enum.

/// Typed script parameter on the wire (mirrors parser::ScriptParam).
enum class WireParamKind : uint8_t { kDate = 0, kInt = 1, kString = 2 };
constexpr WireParamKind LastEnumerator(WireParamKind) {
  return WireParamKind::kString;
}

struct WireParam {
  std::string name;
  WireParamKind kind = WireParamKind::kString;
  /// Date: "YYYY-MM-DD"; string: the value. Unused for kInt.
  std::string text;
  int64_t int_value = 0;
};

struct SubmitRequest {
  static constexpr MsgType kType = MsgType::kSubmit;
  /// ScopeScript source; the server parses it against its own catalog.
  std::string script;
  std::vector<WireParam> params;
  std::string template_id;
  std::string cluster;
  std::string business_unit;
  std::string vc;
  std::string user;
  int64_t recurring_instance = 0;
  int64_t recurrence_period_seconds = 86400;
  std::vector<std::string> tags;
  /// The per-job CloudViews opt-in flag, carried over the wire.
  bool enable_cloudviews = true;
  /// true: the response is kSubmitResult once the job finishes (closed
  /// loop). false: kAccepted{ticket} immediately; poll with kStatusQuery.
  bool wait = true;
};

struct StatusQueryRequest {
  static constexpr MsgType kType = MsgType::kStatusQuery;
  uint64_t ticket = 0;
};

struct ProfileFetchRequest {
  static constexpr MsgType kType = MsgType::kProfileFetch;
  uint64_t ticket = 0;
};

/// Empty payload.
struct ServerStatsRequest {
  static constexpr MsgType kType = MsgType::kServerStats;
};

/// \brief The deterministic slice of a job outcome.
///
/// Everything here is a pure function of (catalog state, submission order,
/// job definition) — no wall-clock times — so a wire submission and an
/// in-process SubmitJob against identically seeded services encode to
/// byte-identical strings. That is the acceptance check for the front
/// door: the wire adds transport, never semantics.
///
/// The JobCounters block is the job's JobResult counters, every
/// CV_JOB_COUNTERS row in table order.
struct JobOutcome : JobCounters {
  uint64_t job_id = 0;
  uint64_t catalog_epoch = 0;
  /// Output stream shape + content fingerprint (HashBuilder over schema
  /// and every row value, in storage order).
  int64_t output_rows = 0;
  int64_t output_bytes = 0;
  Hash128 output_fingerprint;
  bool plan_cache_hit = false;
};

/// \brief The nondeterministic slice: wall-clock measurements that vary run
/// to run (estimated_cost included — feedback statistics embed observed
/// times). Kept out of JobOutcome so byte-identity stays checkable.
struct WireTimings {
  double latency_seconds = 0;
  double cpu_seconds = 0;
  double compile_seconds = 0;
  double metadata_lookup_seconds = 0;
  double queue_seconds = 0;
  double estimated_cost = 0;
};

struct SubmitResultResponse {
  static constexpr MsgType kType = MsgType::kSubmitResult;
  uint64_t ticket = 0;
  JobOutcome outcome;
  WireTimings timings;
};

struct AcceptedResponse {
  static constexpr MsgType kType = MsgType::kAccepted;
  uint64_t ticket = 0;
};

enum class WireJobState : uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
};
constexpr WireJobState LastEnumerator(WireJobState) {
  return WireJobState::kFailed;
}

struct StatusResultResponse {
  static constexpr MsgType kType = MsgType::kStatusResult;
  uint64_t ticket = 0;
  WireJobState state = WireJobState::kQueued;
  /// Valid when state == kDone.
  JobOutcome outcome;
  WireTimings timings;
  /// Valid when state == kFailed: a StatusCode, range-checked on decode.
  uint8_t error_code = 0;
  std::string error_message;
};

struct ProfileResultResponse {
  static constexpr MsgType kType = MsgType::kProfileResult;
  uint64_t ticket = 0;
  /// The per-job span-tree profile JSON (net.request root with the job's
  /// compile/execute children), same schema as the in-process exporter.
  /// Empty when the server's instance does not trace.
  std::string profile_json;
};

struct ServerStatsResponse {
  static constexpr MsgType kType = MsgType::kServerStatsResult;
  uint64_t accepted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_conn_cap = 0;
  uint64_t shed_draining = 0;
  uint64_t shed_injected = 0;
  uint64_t queue_depth = 0;
  uint64_t inflight = 0;
  uint64_t connections = 0;
};

struct ErrorResponse {
  static constexpr MsgType kType = MsgType::kError;
  /// StatusCode of the failure, range-checked on decode.
  uint8_t code = 0;
  std::string message;
};

enum class ShedReason : uint8_t {
  kQueueFull = 0,
  kConnCap = 1,
  kDraining = 2,
  kInjected = 3,
};
constexpr ShedReason LastEnumerator(ShedReason) {
  return ShedReason::kInjected;
}

struct RetryAfterResponse {
  static constexpr MsgType kType = MsgType::kRetryAfter;
  ShedReason reason = ShedReason::kQueueFull;
  uint32_t retry_after_ms = 0;
};

// ---------------------------------------------------------------------------
// Payload codecs, defined for every message above. Encode appends to a
// WireWriter. Decode consumes a whole payload and checks each field as it
// reads it: str lengths and list counts against their limits before any
// allocation, enums against their last enumerator, bools against 0/1. It
// stops at the first error, and trailing bytes are an error.

template <typename Msg>
void Encode(const Msg& msg, WireWriter* w);
template <typename Msg>
Status Decode(std::string_view payload, Msg* out);

/// Encodes only the deterministic slice; this is the byte string the e2e
/// byte-identity test compares between wire and in-process submissions.
std::string EncodeJobOutcome(const JobOutcome& outcome);

// The codec of each message under its own name.
inline constexpr auto EncodeSubmitRequest = Encode<SubmitRequest>;
inline constexpr auto DecodeSubmitRequest = Decode<SubmitRequest>;
inline constexpr auto EncodeStatusQueryRequest = Encode<StatusQueryRequest>;
inline constexpr auto DecodeStatusQueryRequest = Decode<StatusQueryRequest>;
inline constexpr auto EncodeProfileFetchRequest = Encode<ProfileFetchRequest>;
inline constexpr auto DecodeProfileFetchRequest = Decode<ProfileFetchRequest>;
inline constexpr auto EncodeSubmitResultResponse = Encode<SubmitResultResponse>;
inline constexpr auto DecodeSubmitResultResponse = Decode<SubmitResultResponse>;
inline constexpr auto EncodeAcceptedResponse = Encode<AcceptedResponse>;
inline constexpr auto DecodeAcceptedResponse = Decode<AcceptedResponse>;
inline constexpr auto EncodeStatusResultResponse = Encode<StatusResultResponse>;
inline constexpr auto DecodeStatusResultResponse = Decode<StatusResultResponse>;
inline constexpr auto EncodeProfileResultResponse =
    Encode<ProfileResultResponse>;
inline constexpr auto DecodeProfileResultResponse =
    Decode<ProfileResultResponse>;
inline constexpr auto EncodeServerStatsResponse = Encode<ServerStatsResponse>;
inline constexpr auto DecodeServerStatsResponse = Decode<ServerStatsResponse>;
inline constexpr auto EncodeErrorResponse = Encode<ErrorResponse>;
inline constexpr auto DecodeErrorResponse = Decode<ErrorResponse>;
inline constexpr auto EncodeRetryAfterResponse = Encode<RetryAfterResponse>;
inline constexpr auto DecodeRetryAfterResponse = Decode<RetryAfterResponse>;

}  // namespace net
}  // namespace cloudviews

#endif  // CLOUDVIEWS_NET_WIRE_H_
