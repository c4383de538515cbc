#include "net/client.h"

#include <algorithm>

namespace cloudviews {
namespace net {

namespace {

/// One typed round-trip: encodes `request` under its tag, turns a kError
/// reply into its Status, refuses any other tag than `Reply`'s, and
/// decodes the reply.
template <typename Reply, typename Request>
Result<Reply> Call(Client* client, const Request& request) {
  WireWriter w;
  Encode(request, &w);
  CV_ASSIGN_OR_RETURN(Client::Response resp,
                      client->Roundtrip(Request::kType, w.bytes()));
  if (resp.type == MsgType::kError) {
    ErrorResponse error;
    CV_RETURN_NOT_OK(Decode(resp.payload, &error));
    if (error.code == static_cast<uint8_t>(StatusCode::kOk)) {
      return Status(StatusCode::kParseError, "error reply with an OK code");
    }
    return Status(static_cast<StatusCode>(error.code), error.message);
  }
  if (resp.type != Reply::kType) {
    return Status(StatusCode::kParseError, "unexpected response type");
  }
  Reply reply;
  CV_RETURN_NOT_OK(Decode(resp.payload, &reply));
  return reply;
}

}  // namespace

Result<Client> Client::Connect(const std::string& address, uint16_t port) {
  CV_ASSIGN_OR_RETURN(Socket sock, Socket::Connect(address, port));
  return Client(std::move(sock));
}

Result<Client::Response> Client::Roundtrip(MsgType type,
                                           std::string_view payload) {
  CV_RETURN_NOT_OK(SendFrame(&sock_, type, payload));
  FrameHeader header;
  Response resp;
  CV_RETURN_NOT_OK(RecvFrame(&sock_, &header, &resp.payload));
  resp.type = static_cast<MsgType>(header.type);
  return resp;
}

Result<Client::SubmitReply> Client::Submit(const SubmitRequest& request) {
  WireWriter w;
  Encode(request, &w);
  CV_ASSIGN_OR_RETURN(Response resp,
                      Roundtrip(SubmitRequest::kType, w.bytes()));
  SubmitReply reply;
  switch (resp.type) {
    case MsgType::kSubmitResult:
      reply.kind = SubmitReply::Kind::kResult;
      CV_RETURN_NOT_OK(Decode(resp.payload, &reply.result));
      return reply;
    case MsgType::kAccepted:
      reply.kind = SubmitReply::Kind::kAccepted;
      CV_RETURN_NOT_OK(Decode(resp.payload, &reply.accepted));
      return reply;
    case MsgType::kRetryAfter:
      reply.kind = SubmitReply::Kind::kRetryAfter;
      CV_RETURN_NOT_OK(Decode(resp.payload, &reply.retry));
      return reply;
    case MsgType::kError:
      reply.kind = SubmitReply::Kind::kError;
      CV_RETURN_NOT_OK(Decode(resp.payload, &reply.error));
      return reply;
    default:
      return Status(StatusCode::kParseError,
                    "unexpected response type " +
                        std::to_string(static_cast<int>(resp.type)));
  }
}

Result<Client::SubmitReply> Client::SubmitWithRetry(
    const SubmitRequest& request, const fault::RetryPolicy& policy,
    fault::Sleeper* sleeper, int* retries) {
  if (sleeper == nullptr) sleeper = fault::Sleeper::Real();
  if (retries != nullptr) *retries = 0;
  int attempts = std::max(policy.max_attempts, 1);
  double backoff = policy.initial_backoff_seconds;
  Result<SubmitReply> reply = Submit(request);
  for (int attempt = 1; attempt < attempts; ++attempt) {
    if (!reply.ok() || reply->kind != SubmitReply::Kind::kRetryAfter) {
      return reply;
    }
    double hint = reply->retry.retry_after_ms / 1000.0;
    sleeper->Sleep(std::max(hint, backoff));
    backoff = std::min(backoff * policy.backoff_multiplier,
                       policy.max_backoff_seconds);
    if (retries != nullptr) ++*retries;
    reply = Submit(request);
  }
  return reply;
}

Result<StatusResultResponse> Client::QueryStatus(uint64_t ticket) {
  return Call<StatusResultResponse>(this, StatusQueryRequest{ticket});
}

Result<ProfileResultResponse> Client::FetchProfile(uint64_t ticket) {
  return Call<ProfileResultResponse>(this, ProfileFetchRequest{ticket});
}

Result<ServerStatsResponse> Client::ServerStats() {
  return Call<ServerStatsResponse>(this, ServerStatsRequest{});
}

}  // namespace net
}  // namespace cloudviews
