#include "net/wire.h"

#include <cstring>
#include <type_traits>

namespace cloudviews {
namespace net {

namespace {

// memcpy through a uint64_t is the strict-aliasing-safe bit cast; C++17 has
// no std::bit_cast.
uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

bool IsRequestType(uint8_t t) {
  switch (static_cast<MsgType>(t)) {
    case MsgType::kSubmit:
    case MsgType::kStatusQuery:
    case MsgType::kProfileFetch:
    case MsgType::kServerStats:
      return true;
    default:
      return false;
  }
}

void WireWriter::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v & 0xff));
  U8(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void WireWriter::F64(double v) { U64(DoubleBits(v)); }

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

Status WireReader::Need(size_t n) const {
  if (buf_.size() - pos_ < n) {
    return Status(StatusCode::kParseError, "wire: short read");
  }
  return Status::OK();
}

Status WireReader::U8(uint8_t* v) {
  CV_RETURN_NOT_OK(Need(1));
  *v = static_cast<uint8_t>(buf_[pos_++]);
  return Status::OK();
}

Status WireReader::U16(uint16_t* v) {
  CV_RETURN_NOT_OK(Need(2));
  uint16_t out = 0;
  for (int i = 0; i < 2; ++i) {
    out |= static_cast<uint16_t>(static_cast<uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 2;
  *v = out;
  return Status::OK();
}

Status WireReader::U32(uint32_t* v) {
  CV_RETURN_NOT_OK(Need(4));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status WireReader::U64(uint64_t* v) {
  CV_RETURN_NOT_OK(Need(8));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status WireReader::I64(int64_t* v) {
  uint64_t bits = 0;
  CV_RETURN_NOT_OK(U64(&bits));
  *v = static_cast<int64_t>(bits);
  return Status::OK();
}

Status WireReader::F64(double* v) {
  uint64_t bits = 0;
  CV_RETURN_NOT_OK(U64(&bits));
  *v = BitsDouble(bits);
  return Status::OK();
}

Status WireReader::Bool(bool* v) {
  uint8_t b = 0;
  CV_RETURN_NOT_OK(U8(&b));
  if (b > 1) return Status(StatusCode::kParseError, "wire: bad bool");
  *v = b != 0;
  return Status::OK();
}

Status WireReader::Str(std::string* s) {
  uint32_t len = 0;
  CV_RETURN_NOT_OK(U32(&len));
  if (len > kMaxStringBytes) {
    // Checked against the declared length before Need/assign so a hostile
    // length field inside a valid frame can never drive an allocation.
    return Status(StatusCode::kOutOfRange, "wire: string too long");
  }
  CV_RETURN_NOT_OK(Need(len));
  s->assign(buf_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (pos_ != buf_.size()) {
    return Status(StatusCode::kParseError, "wire: trailing bytes in payload");
  }
  return Status::OK();
}

std::string EncodeFrame(MsgType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(kMagic0);
  frame.push_back(kMagic1);
  frame.push_back(static_cast<char>(kProtocolVersion));
  frame.push_back(static_cast<char>(type));
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  frame.append(payload.data(), payload.size());
  return frame;
}

Status DecodeFrameHeader(const char* bytes, FrameHeader* out) {
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    return Status(StatusCode::kAborted, "wire: bad magic");
  }
  out->version = static_cast<uint8_t>(bytes[2]);
  out->type = static_cast<uint8_t>(bytes[3]);
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[4 + i]))
           << (8 * i);
  }
  out->payload_len = len;
  if (out->version != kProtocolVersion) {
    return Status(StatusCode::kUnimplemented, "wire: protocol version " +
                                                  std::to_string(out->version) +
                                                  " unsupported");
  }
  if (len > kMaxPayloadBytes) {
    return Status(StatusCode::kOutOfRange, "wire: oversized frame (" +
                                               std::to_string(len) +
                                               " bytes)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Requests

void EncodeSubmitRequest(const SubmitRequest& req, WireWriter* w) {
  w->Str(req.script);
  w->U32(static_cast<uint32_t>(req.params.size()));
  for (const WireParam& p : req.params) {
    w->Str(p.name);
    w->U8(static_cast<uint8_t>(p.kind));
    w->Str(p.text);
    w->I64(p.int_value);
  }
  w->Str(req.template_id);
  w->Str(req.cluster);
  w->Str(req.business_unit);
  w->Str(req.vc);
  w->Str(req.user);
  w->I64(req.recurring_instance);
  w->I64(req.recurrence_period_seconds);
  w->U32(static_cast<uint32_t>(req.tags.size()));
  for (const std::string& t : req.tags) w->Str(t);
  w->Bool(req.enable_cloudviews);
  w->Bool(req.wait);
}

Status DecodeSubmitRequest(std::string_view payload, SubmitRequest* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.Str(&out->script));
  uint32_t nparams = 0;
  CV_RETURN_NOT_OK(r.U32(&nparams));
  if (nparams > kMaxListItems) {
    return Status(StatusCode::kOutOfRange, "wire: too many params");
  }
  out->params.clear();
  out->params.reserve(nparams);
  for (uint32_t i = 0; i < nparams; ++i) {
    WireParam p;
    CV_RETURN_NOT_OK(r.Str(&p.name));
    uint8_t kind = 0;
    CV_RETURN_NOT_OK(r.U8(&kind));
    if (kind > static_cast<uint8_t>(WireParamKind::kString)) {
      return Status(StatusCode::kParseError, "wire: unknown param kind");
    }
    p.kind = static_cast<WireParamKind>(kind);
    CV_RETURN_NOT_OK(r.Str(&p.text));
    CV_RETURN_NOT_OK(r.I64(&p.int_value));
    out->params.push_back(std::move(p));
  }
  CV_RETURN_NOT_OK(r.Str(&out->template_id));
  CV_RETURN_NOT_OK(r.Str(&out->cluster));
  CV_RETURN_NOT_OK(r.Str(&out->business_unit));
  CV_RETURN_NOT_OK(r.Str(&out->vc));
  CV_RETURN_NOT_OK(r.Str(&out->user));
  CV_RETURN_NOT_OK(r.I64(&out->recurring_instance));
  CV_RETURN_NOT_OK(r.I64(&out->recurrence_period_seconds));
  uint32_t ntags = 0;
  CV_RETURN_NOT_OK(r.U32(&ntags));
  if (ntags > kMaxListItems) {
    return Status(StatusCode::kOutOfRange, "wire: too many tags");
  }
  out->tags.clear();
  out->tags.reserve(ntags);
  for (uint32_t i = 0; i < ntags; ++i) {
    std::string t;
    CV_RETURN_NOT_OK(r.Str(&t));
    out->tags.push_back(std::move(t));
  }
  CV_RETURN_NOT_OK(r.Bool(&out->enable_cloudviews));
  CV_RETURN_NOT_OK(r.Bool(&out->wait));
  return r.ExpectEnd();
}

void EncodeStatusQueryRequest(const StatusQueryRequest& req, WireWriter* w) {
  w->U64(req.ticket);
}

Status DecodeStatusQueryRequest(std::string_view payload,
                                StatusQueryRequest* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U64(&out->ticket));
  return r.ExpectEnd();
}

void EncodeProfileFetchRequest(const ProfileFetchRequest& req, WireWriter* w) {
  w->U64(req.ticket);
}

Status DecodeProfileFetchRequest(std::string_view payload,
                                 ProfileFetchRequest* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U64(&out->ticket));
  return r.ExpectEnd();
}

// ---------------------------------------------------------------------------
// Responses

namespace {

void AppendOutcome(const JobOutcome& o, WireWriter* w) {
  w->U64(o.job_id);
  w->U64(o.catalog_epoch);
  w->I64(o.output_rows);
  w->I64(o.output_bytes);
  w->U64(o.output_fingerprint.hi);
  w->U64(o.output_fingerprint.lo);
  // Counters in CV_JOB_COUNTERS order: tallies as u32, flags as bool.
  ForEachJobCounter(o, [w](size_t, auto value) {
    if constexpr (std::is_same_v<decltype(value), bool>) {
      w->Bool(value);
    } else {
      w->U32(static_cast<uint32_t>(value));
    }
  });
  w->Bool(o.plan_cache_hit);
}

void AppendTimings(const WireTimings& t, WireWriter* w) {
  w->F64(t.latency_seconds);
  w->F64(t.cpu_seconds);
  w->F64(t.compile_seconds);
  w->F64(t.metadata_lookup_seconds);
  w->F64(t.queue_seconds);
  w->F64(t.estimated_cost);
}

Status ReadTimings(WireReader* r, WireTimings* t) {
  CV_RETURN_NOT_OK(r->F64(&t->latency_seconds));
  CV_RETURN_NOT_OK(r->F64(&t->cpu_seconds));
  CV_RETURN_NOT_OK(r->F64(&t->compile_seconds));
  CV_RETURN_NOT_OK(r->F64(&t->metadata_lookup_seconds));
  CV_RETURN_NOT_OK(r->F64(&t->queue_seconds));
  CV_RETURN_NOT_OK(r->F64(&t->estimated_cost));
  return Status::OK();
}

}  // namespace

std::string EncodeJobOutcome(const JobOutcome& outcome) {
  WireWriter w;
  AppendOutcome(outcome, &w);
  return w.Take();
}

Status DecodeJobOutcome(WireReader* r, JobOutcome* out) {
  CV_RETURN_NOT_OK(r->U64(&out->job_id));
  CV_RETURN_NOT_OK(r->U64(&out->catalog_epoch));
  CV_RETURN_NOT_OK(r->I64(&out->output_rows));
  CV_RETURN_NOT_OK(r->I64(&out->output_bytes));
  CV_RETURN_NOT_OK(r->U64(&out->output_fingerprint.hi));
  CV_RETURN_NOT_OK(r->U64(&out->output_fingerprint.lo));
  Status read;
  ForEachJobCounter(*out, [r, &read](size_t, auto& value) {
    if (!read.ok()) return;
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, bool>) {
      read = r->Bool(&value);
    } else {
      uint32_t raw = 0;
      read = r->U32(&raw);
      value = static_cast<int32_t>(raw);
    }
  });
  CV_RETURN_NOT_OK(read);
  return r->Bool(&out->plan_cache_hit);
}

void EncodeSubmitResultResponse(const SubmitResultResponse& resp,
                                WireWriter* w) {
  w->U64(resp.ticket);
  AppendOutcome(resp.outcome, w);
  AppendTimings(resp.timings, w);
}

Status DecodeSubmitResultResponse(std::string_view payload,
                                  SubmitResultResponse* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U64(&out->ticket));
  CV_RETURN_NOT_OK(DecodeJobOutcome(&r, &out->outcome));
  CV_RETURN_NOT_OK(ReadTimings(&r, &out->timings));
  return r.ExpectEnd();
}

void EncodeAcceptedResponse(const AcceptedResponse& resp, WireWriter* w) {
  w->U64(resp.ticket);
}

Status DecodeAcceptedResponse(std::string_view payload,
                              AcceptedResponse* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U64(&out->ticket));
  return r.ExpectEnd();
}

void EncodeStatusResultResponse(const StatusResultResponse& resp,
                                WireWriter* w) {
  w->U64(resp.ticket);
  w->U8(static_cast<uint8_t>(resp.state));
  AppendOutcome(resp.outcome, w);
  AppendTimings(resp.timings, w);
  w->U8(resp.error_code);
  w->Str(resp.error_message);
}

Status DecodeStatusResultResponse(std::string_view payload,
                                  StatusResultResponse* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U64(&out->ticket));
  uint8_t state = 0;
  CV_RETURN_NOT_OK(r.U8(&state));
  if (state > static_cast<uint8_t>(WireJobState::kFailed)) {
    return Status(StatusCode::kParseError, "wire: unknown job state");
  }
  out->state = static_cast<WireJobState>(state);
  CV_RETURN_NOT_OK(DecodeJobOutcome(&r, &out->outcome));
  CV_RETURN_NOT_OK(ReadTimings(&r, &out->timings));
  CV_RETURN_NOT_OK(r.U8(&out->error_code));
  CV_RETURN_NOT_OK(r.Str(&out->error_message));
  return r.ExpectEnd();
}

void EncodeProfileResultResponse(const ProfileResultResponse& resp,
                                 WireWriter* w) {
  w->U64(resp.ticket);
  w->Str(resp.profile_json);
}

Status DecodeProfileResultResponse(std::string_view payload,
                                   ProfileResultResponse* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U64(&out->ticket));
  CV_RETURN_NOT_OK(r.Str(&out->profile_json));
  return r.ExpectEnd();
}

void EncodeServerStatsResponse(const ServerStatsResponse& resp,
                               WireWriter* w) {
  w->U64(resp.accepted);
  w->U64(resp.completed);
  w->U64(resp.failed);
  w->U64(resp.shed_queue_full);
  w->U64(resp.shed_conn_cap);
  w->U64(resp.shed_draining);
  w->U64(resp.shed_injected);
  w->U64(resp.queue_depth);
  w->U64(resp.inflight);
  w->U64(resp.connections);
}

Status DecodeServerStatsResponse(std::string_view payload,
                                 ServerStatsResponse* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U64(&out->accepted));
  CV_RETURN_NOT_OK(r.U64(&out->completed));
  CV_RETURN_NOT_OK(r.U64(&out->failed));
  CV_RETURN_NOT_OK(r.U64(&out->shed_queue_full));
  CV_RETURN_NOT_OK(r.U64(&out->shed_conn_cap));
  CV_RETURN_NOT_OK(r.U64(&out->shed_draining));
  CV_RETURN_NOT_OK(r.U64(&out->shed_injected));
  CV_RETURN_NOT_OK(r.U64(&out->queue_depth));
  CV_RETURN_NOT_OK(r.U64(&out->inflight));
  CV_RETURN_NOT_OK(r.U64(&out->connections));
  return r.ExpectEnd();
}

void EncodeErrorResponse(const ErrorResponse& resp, WireWriter* w) {
  w->U8(resp.code);
  w->Str(resp.message);
}

Status DecodeErrorResponse(std::string_view payload, ErrorResponse* out) {
  WireReader r(payload);
  CV_RETURN_NOT_OK(r.U8(&out->code));
  if (out->code > static_cast<uint8_t>(StatusCode::kViewUnavailable)) {
    return Status(StatusCode::kParseError, "wire: unknown status code");
  }
  CV_RETURN_NOT_OK(r.Str(&out->message));
  return r.ExpectEnd();
}

void EncodeRetryAfterResponse(const RetryAfterResponse& resp, WireWriter* w) {
  w->U8(static_cast<uint8_t>(resp.reason));
  w->U32(resp.retry_after_ms);
}

Status DecodeRetryAfterResponse(std::string_view payload,
                                RetryAfterResponse* out) {
  WireReader r(payload);
  uint8_t reason = 0;
  CV_RETURN_NOT_OK(r.U8(&reason));
  if (reason > static_cast<uint8_t>(ShedReason::kInjected)) {
    return Status(StatusCode::kParseError, "wire: unknown shed reason");
  }
  out->reason = static_cast<ShedReason>(reason);
  CV_RETURN_NOT_OK(r.U32(&out->retry_after_ms));
  return r.ExpectEnd();
}

}  // namespace net
}  // namespace cloudviews
