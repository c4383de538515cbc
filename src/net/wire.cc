#include "net/wire.h"

#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

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
// Message codecs

namespace {

/// A StatusCode kept in a u8 member: it travels and is checked like an
/// enum field.
template <typename Byte>
struct StatusByte {
  Byte& raw;
};
template <typename Byte>
StatusByte(Byte&) -> StatusByte<Byte>;

template <typename T>
inline constexpr bool kIsStatusByte = false;
template <typename Byte>
inline constexpr bool kIsStatusByte<StatusByte<Byte>> = true;

template <typename T>
inline constexpr bool kIsList = false;
template <typename T>
inline constexpr bool kIsList<std::vector<T>> = true;

/// The v2 layout: each message's fields in wire order, the one definition
/// of the protocol's payloads. `m` is const when encoding and mutable when
/// decoding; `v` is the Writer or the Reader below, which map each field's
/// C++ type to its primitive.
template <typename M, typename V>
void Fields(M& m, V& v) {
  using T = std::remove_const_t<M>;
  if constexpr (std::is_same_v<T, SubmitRequest>) {
    v(m.script, m.params, m.template_id, m.cluster, m.business_unit, m.vc,
      m.user, m.recurring_instance, m.recurrence_period_seconds, m.tags,
      m.enable_cloudviews, m.wait);
  } else if constexpr (std::is_same_v<T, WireParam>) {
    v(m.name, m.kind, m.text, m.int_value);
  } else if constexpr (std::is_same_v<T, StatusQueryRequest> ||
                       std::is_same_v<T, ProfileFetchRequest> ||
                       std::is_same_v<T, AcceptedResponse>) {
    v(m.ticket);
  } else if constexpr (std::is_same_v<T, ServerStatsRequest>) {
    // Empty payload.
  } else if constexpr (std::is_same_v<T, JobOutcome>) {
    v(m.job_id, m.catalog_epoch, m.output_rows, m.output_bytes,
      m.output_fingerprint.hi, m.output_fingerprint.lo);
    // Every CV_JOB_COUNTERS row in table order: tallies as u32, flags as
    // bool.
    ForEachJobCounter(m, [&v](size_t, auto& value) { v(value); });
    v(m.plan_cache_hit);
  } else if constexpr (std::is_same_v<T, WireTimings>) {
    v(m.latency_seconds, m.cpu_seconds, m.compile_seconds,
      m.metadata_lookup_seconds, m.queue_seconds, m.estimated_cost);
  } else if constexpr (std::is_same_v<T, SubmitResultResponse>) {
    v(m.ticket, m.outcome, m.timings);
  } else if constexpr (std::is_same_v<T, StatusResultResponse>) {
    v(m.ticket, m.state, m.outcome, m.timings, StatusByte{m.error_code},
      m.error_message);
  } else if constexpr (std::is_same_v<T, ProfileResultResponse>) {
    v(m.ticket, m.profile_json);
  } else if constexpr (std::is_same_v<T, ServerStatsResponse>) {
    v(m.accepted, m.completed, m.failed, m.shed_queue_full, m.shed_conn_cap,
      m.shed_draining, m.shed_injected, m.queue_depth, m.inflight,
      m.connections);
  } else if constexpr (std::is_same_v<T, ErrorResponse>) {
    v(StatusByte{m.code}, m.message);
  } else {
    static_assert(std::is_same_v<T, RetryAfterResponse>, "no field list");
    v(m.reason, m.retry_after_ms);
  }
}

/// The largest u8 an enum field (or a StatusByte) may carry.
template <typename T>
constexpr uint8_t LastByte() {
  if constexpr (kIsStatusByte<T>) {
    return static_cast<uint8_t>(LastEnumerator(StatusCode{}));
  } else {
    return static_cast<uint8_t>(LastEnumerator(T{}));
  }
}

/// Appends each field it is handed.
struct Writer {
  WireWriter* w;

  template <typename... Fs>
  void operator()(const Fs&... fields) {
    (Put(fields), ...);
  }

  template <typename T>
  void Put(const T& x) {
    if constexpr (std::is_same_v<T, std::string>) {
      w->Str(x);
    } else if constexpr (std::is_same_v<T, bool>) {
      w->Bool(x);
    } else if constexpr (std::is_same_v<T, int> ||
                         std::is_same_v<T, uint32_t>) {
      w->U32(static_cast<uint32_t>(x));
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      w->U64(x);
    } else if constexpr (std::is_same_v<T, int64_t>) {
      w->I64(x);
    } else if constexpr (std::is_same_v<T, double>) {
      w->F64(x);
    } else if constexpr (std::is_enum_v<T>) {
      w->U8(static_cast<uint8_t>(x));
    } else if constexpr (kIsStatusByte<T>) {
      w->U8(x.raw);
    } else if constexpr (kIsList<T>) {
      w->U32(static_cast<uint32_t>(x.size()));
      for (const auto& item : x) Put(item);
    } else {
      Fields(x, *this);
    }
  }
};

/// Reads into each field it is handed and checks it. After the first
/// error it reads nothing more, and `status` holds that error.
struct Reader {
  WireReader* r;
  Status status = Status::OK();

  template <typename... Fs>
  void operator()(Fs&&... fields) {
    (Get(fields), ...);
  }

  template <typename T>
  void Get(T& x) {
    if (!status.ok()) return;
    if constexpr (std::is_same_v<T, std::string>) {
      status = r->Str(&x);
    } else if constexpr (std::is_same_v<T, bool>) {
      status = r->Bool(&x);
    } else if constexpr (std::is_same_v<T, int>) {
      uint32_t raw = 0;
      status = r->U32(&raw);
      x = static_cast<int32_t>(raw);
    } else if constexpr (std::is_same_v<T, uint32_t>) {
      status = r->U32(&x);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      status = r->U64(&x);
    } else if constexpr (std::is_same_v<T, int64_t>) {
      status = r->I64(&x);
    } else if constexpr (std::is_same_v<T, double>) {
      status = r->F64(&x);
    } else if constexpr (std::is_enum_v<T> || kIsStatusByte<T>) {
      uint8_t raw = 0;
      status = r->U8(&raw);
      if (status.ok() && raw > LastByte<T>()) {
        status = Status(StatusCode::kParseError,
                        "wire: enum value " + std::to_string(raw) +
                            " out of range");
      }
      if (!status.ok()) return;
      if constexpr (kIsStatusByte<T>) {
        x.raw = raw;
      } else {
        x = static_cast<T>(raw);
      }
    } else if constexpr (kIsList<T>) {
      uint32_t count = 0;
      status = r->U32(&count);
      if (status.ok() && count > kMaxListItems) {
        status = Status(StatusCode::kOutOfRange, "wire: list too long");
      }
      if (!status.ok()) return;
      x.clear();
      x.resize(count);
      for (auto& item : x) Get(item);
    } else {
      Fields(x, *this);
    }
  }
};

}  // namespace

template <typename Msg>
void Encode(const Msg& msg, WireWriter* w) {
  Writer writer{w};
  Fields(msg, writer);
}

template <typename Msg>
Status Decode(std::string_view payload, Msg* out) {
  WireReader r(payload);
  Reader reader{&r};
  Fields(*out, reader);
  CV_RETURN_NOT_OK(reader.status);
  return r.ExpectEnd();
}

// The messages of wire.h; other translation units link against these.
template void Encode(const SubmitRequest&, WireWriter*);
template Status Decode(std::string_view, SubmitRequest*);
template void Encode(const StatusQueryRequest&, WireWriter*);
template Status Decode(std::string_view, StatusQueryRequest*);
template void Encode(const ProfileFetchRequest&, WireWriter*);
template Status Decode(std::string_view, ProfileFetchRequest*);
template void Encode(const ServerStatsRequest&, WireWriter*);
template Status Decode(std::string_view, ServerStatsRequest*);
template void Encode(const SubmitResultResponse&, WireWriter*);
template Status Decode(std::string_view, SubmitResultResponse*);
template void Encode(const AcceptedResponse&, WireWriter*);
template Status Decode(std::string_view, AcceptedResponse*);
template void Encode(const StatusResultResponse&, WireWriter*);
template Status Decode(std::string_view, StatusResultResponse*);
template void Encode(const ProfileResultResponse&, WireWriter*);
template Status Decode(std::string_view, ProfileResultResponse*);
template void Encode(const ServerStatsResponse&, WireWriter*);
template Status Decode(std::string_view, ServerStatsResponse*);
template void Encode(const ErrorResponse&, WireWriter*);
template Status Decode(std::string_view, ErrorResponse*);
template void Encode(const RetryAfterResponse&, WireWriter*);
template Status Decode(std::string_view, RetryAfterResponse*);

std::string EncodeJobOutcome(const JobOutcome& outcome) {
  WireWriter w;
  Encode(outcome, &w);
  return w.Take();
}

}  // namespace net
}  // namespace cloudviews
