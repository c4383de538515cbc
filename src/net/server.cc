#include "net/server.h"

#include <optional>
#include <utility>

#include "common/clock.h"
#include "net/outcome.h"
#include "obs/export.h"
#include "obs/json.h"
#include "parser/parser.h"

namespace cloudviews {
namespace net {

namespace {

/// Rebuilds the parser's typed parameter map from the wire encoding.
Status ParamsFromWire(const std::vector<WireParam>& wire, ParamMap* out) {
  out->clear();
  for (const WireParam& p : wire) {
    if (p.name.empty()) {
      return Status::InvalidArgument("empty parameter name");
    }
    switch (p.kind) {
      case WireParamKind::kDate:
        (*out)[p.name] = DateParam(p.text);
        break;
      case WireParamKind::kInt:
        (*out)[p.name] = IntParam(p.int_value);
        break;
      case WireParamKind::kString:
        (*out)[p.name] = StringParam(p.text);
        break;
    }
  }
  return Status::OK();
}

}  // namespace

JobServiceServer::JobServiceServer(CloudViews* cv, NetServerConfig config)
    : cv_(cv),
      config_(std::move(config)),
      admission_(config_, cv->config().fault, cv->metrics()),
      pool_(std::make_unique<ThreadPool>(config_.submission_workers,
                                         cv->metrics(), "net",
                                         cv->config().wall_clock)) {
  obs::MetricsRegistry* metrics = cv_->metrics();
  completed_total_ = metrics->GetCounter(
      "cv_net_completed_total", {}, "Admitted submissions whose job succeeded");
  failed_total_ = metrics->GetCounter("cv_net_failed_total", {},
                                      "Admitted submissions whose job failed");
  requests_total_ = metrics->GetCounter("cv_net_requests_total", {},
                                        "Frames dispatched by the server");
  conns_total_ = metrics->GetCounter("cv_net_connections_total", {},
                                     "Connections accepted");
  conns_rejected_ =
      metrics->GetCounter("cv_net_connections_rejected_total", {},
                          "Connections dropped at accept (cap or fault)");
  protocol_errors_ = metrics->GetCounter(
      "cv_net_protocol_errors_total", {},
      "Malformed frames / payloads answered with kError or a close");
  conns_gauge_ =
      metrics->GetGauge("cv_net_connections", {}, "Open connections");
  request_seconds_ =
      metrics->GetHistogram("cv_net_request_seconds", {}, {},
                            "Submit wall time, admission to response");
  reply_seconds_ = metrics->GetHistogram(
      "cv_net_reply_seconds", {}, {},
      "Wall time to encode and write one reply frame");
}

JobServiceServer::~JobServiceServer() { Stop(); }

Result<uint16_t> JobServiceServer::Start() {
  if (started_.exchange(true)) {
    return Status(StatusCode::kAlreadyExists, "server already started");
  }
  CV_ASSIGN_OR_RETURN(listener_,
                      Socket::Listen(config_.bind_address, config_.port,
                                     config_.listen_backlog));
  CV_ASSIGN_OR_RETURN(uint16_t port, listener_.BoundPort());
  port_ = port;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void JobServiceServer::Stop() {
  // The drain gate is the once-flag: only the first Stop() drains.
  if (!started_.load() || !admission_.Drain()) return;
  // 1. New work is refused: later submits shed with kDraining, and the
  //    listener stops producing connections.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Every admitted submission was enqueued inside admission's critical
  //    section, which Drain() also took, so all of them are on the pool.
  //    Destroying it runs each one to completion, reply included, before
  //    any socket is torn down.
  pool_.reset();
  // 3. Unblock connection readers and join them.
  {
    MutexLock lock(conns_mu_);
    for (auto& conn : conns_) conn->sock.ShutdownBoth();
  }
  std::vector<std::shared_ptr<Connection>> conns;
  {
    MutexLock lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns_gauge_->Set(0);
}

ServerStatsResponse JobServiceServer::Stats() const {
  ServerStatsResponse stats;
  stats.accepted = admission_.accepted();
  stats.completed = completed_total_->value();
  stats.failed = failed_total_->value();
  stats.shed_queue_full = admission_.shed_count(ShedReason::kQueueFull);
  stats.shed_conn_cap = admission_.shed_count(ShedReason::kConnCap);
  stats.shed_draining = admission_.shed_count(ShedReason::kDraining);
  stats.shed_injected = admission_.shed_count(ShedReason::kInjected);
  stats.queue_depth = admission_.queued();
  stats.inflight = admission_.inflight();
  {
    MutexLock lock(conns_mu_);
    stats.connections = conns_.size();
  }
  return stats;
}

void JobServiceServer::ReapFinishedConnections() {
  std::vector<std::shared_ptr<Connection>> dead;
  {
    MutexLock lock(conns_mu_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock; these threads have already flagged done.
  for (auto& conn : dead) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void JobServiceServer::AcceptLoop() {
  fault::FaultInjector* fault = cv_->config().fault;
  for (;;) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kAborted) break;
      // Transient accept failure (e.g. EMFILE): keep serving.
      continue;
    }
    ReapFinishedConnections();
    if (fault != nullptr &&
        !fault->MaybeInject(fault::points::kNetAccept).ok()) {
      conns_rejected_->Increment();
      continue;  // the accepted socket drops on scope exit
    }
    size_t live = 0;
    {
      MutexLock lock(conns_mu_);
      live = conns_.size();
    }
    if (live >= static_cast<size_t>(config_.max_connections)) {
      conns_rejected_->Increment();
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_.fetch_add(1);
    conn->sock = std::move(*accepted);
    conns_total_->Increment();
    {
      MutexLock lock(conns_mu_);
      conns_.push_back(conn);
      conns_gauge_->Set(static_cast<double>(conns_.size()));
    }
    conn->thread = std::thread([this, conn] { ConnectionLoop(conn); });
  }
}

void JobServiceServer::ConnectionLoop(
    const std::shared_ptr<Connection>& conn) {
  fault::FaultInjector* fault = cv_->config().fault;
  const std::string conn_key = std::to_string(conn->id);
  for (;;) {
    if (fault != nullptr &&
        !fault->MaybeInject(fault::points::kNetRead, conn_key).ok()) {
      break;  // injected mid-stream drop
    }
    FrameHeader header;
    std::string payload;
    Status status = RecvFrame(&conn->sock, &header, &payload);
    if (!status.ok()) {
      switch (status.code()) {
        case StatusCode::kUnimplemented:  // version mismatch
        case StatusCode::kOutOfRange:     // oversized length prefix
          protocol_errors_->Increment();
          (void)SendError(conn.get(), status);  // close either way
          break;
        case StatusCode::kAborted:  // clean close / shutdown / bad magic
          break;
        default:  // truncated frame, reset, ...
          protocol_errors_->Increment();
          break;
      }
      break;
    }
    if (!HandleFrame(conn, header, payload)) break;
  }
  conn->sock.ShutdownBoth();
  conn->done.store(true, std::memory_order_release);
  {
    MutexLock lock(conns_mu_);
    // conns_ may already have dropped this entry (Stop swap); the gauge
    // tracks the vector either way.
    size_t live = 0;
    for (const auto& c : conns_) {
      if (!c->done.load(std::memory_order_acquire)) ++live;
    }
    conns_gauge_->Set(static_cast<double>(live));
  }
}

template <typename Reply>
bool JobServiceServer::Send(Connection* conn, const Reply& reply) {
  MonotonicClock* wall_clock = cv_->config().wall_clock;
  const double start = wall_clock->NowSeconds();
  WireWriter w;
  Encode(reply, &w);
  bool sent = false;
  fault::FaultInjector* fault = cv_->config().fault;
  // An injected write failure loses the response like a peer reset
  // mid-write; either way the connection is torn down.
  if (fault == nullptr ||
      fault->MaybeInject(fault::points::kNetWrite, std::to_string(conn->id))
          .ok()) {
    MutexLock lock(conn->write_mu);
    sent = SendFrame(&conn->sock, Reply::kType, w.bytes()).ok();
  }
  if (!sent) conn->sock.ShutdownBoth();
  reply_seconds_->Observe(wall_clock->NowSeconds() - start);
  return sent;
}

bool JobServiceServer::SendError(Connection* conn, const Status& status) {
  return Send(conn,
              ErrorResponse{static_cast<uint8_t>(status.code()),
                            status.message()});
}

template <typename Request, typename Answer>
bool JobServiceServer::Serve(Connection* conn, const std::string& payload,
                             Answer&& answer) {
  Request request;
  Status st = Decode(payload, &request);
  if (!st.ok()) {
    protocol_errors_->Increment();
    return SendError(conn, st);
  }
  auto reply = answer(request);
  if (!reply.ok()) return SendError(conn, reply.status());
  return Send(conn, *reply);
}

bool JobServiceServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                                   const FrameHeader& header,
                                   const std::string& payload) {
  requests_total_->Increment();
  switch (static_cast<MsgType>(header.type)) {
    case MsgType::kSubmit:
      return HandleSubmit(conn, payload);
    case MsgType::kStatusQuery:
      return Serve<StatusQueryRequest>(
          conn.get(), payload,
          [this](const auto& req) { return JobStatus(req.ticket); });
    case MsgType::kProfileFetch:
      return Serve<ProfileFetchRequest>(
          conn.get(), payload,
          [this](const auto& req) { return JobProfile(req.ticket); });
    case MsgType::kServerStats:
      return Serve<ServerStatsRequest>(
          conn.get(), payload,
          [this](const auto&) { return Result<ServerStatsResponse>(Stats()); });
    default:
      protocol_errors_->Increment();
      // Framing is intact, so the connection survives an unknown tag: reply
      // with a typed error and keep reading.
      return SendError(conn.get(),
                       Status::InvalidArgument(
                           "unknown request type " +
                           std::to_string(static_cast<int>(header.type))));
  }
}

Result<StatusResultResponse> JobServiceServer::JobStatus(
    uint64_t ticket) const {
  MutexLock lock(job_mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end()) {
    return Status::NotFound("unknown ticket " + std::to_string(ticket));
  }
  return it->second.status;
}

Result<ProfileResultResponse> JobServiceServer::JobProfile(
    uint64_t ticket) const {
  std::weak_ptr<const obs::SpanRecord> trace;
  {
    MutexLock lock(job_mu_);
    auto it = jobs_.find(ticket);
    if (it == jobs_.end()) {
      return Status::NotFound("unknown ticket " + std::to_string(ticket));
    }
    WireJobState state = it->second.status.state;
    if (state != WireJobState::kDone && state != WireJobState::kFailed) {
      return Status::NotFound("profile not ready for ticket " +
                              std::to_string(ticket));
    }
    trace = it->second.trace;
  }
  // Rendered outside job_mu_, from the tracer's immutable record.
  ProfileResultResponse reply{ticket, ""};
  if (!cv_->config().enable_observability) return reply;
  std::shared_ptr<const obs::SpanRecord> record = trace.lock();
  if (record == nullptr) {
    return Status::NotFound("profile of ticket " + std::to_string(ticket) +
                            " is no longer retained");
  }
  obs::JsonWriter w;
  obs::SpanToJson(*record, &w);
  reply.profile_json = w.Take();
  return reply;
}

bool JobServiceServer::HandleSubmit(const std::shared_ptr<Connection>& conn,
                                    const std::string& payload) {
  // The request's root span; the job's whole lifecycle nests under it so a
  // wire job's profile carries compile/execute exactly like an in-process
  // one, plus the front-door framing. An instance that does not trace gets
  // an inactive span, so a wire job leaves no trace there either.
  auto span = std::make_shared<obs::Span>(
      cv_->config().enable_observability
          ? cv_->tracer()->StartTrace("net.request")
          : obs::Span());
  span->SetAttribute("request", "submit");
  span->SetAttribute("connection", static_cast<uint64_t>(conn->id));

  SubmitRequest req;
  ParamMap params;
  {
    obs::Span decode_span = span->StartChild("decode");
    Status st = Decode(payload, &req);
    if (st.ok()) st = ParamsFromWire(req.params, &params);
    if (!st.ok()) {
      decode_span.SetAttribute("error", st.ToString());
      protocol_errors_->Increment();
      return SendError(conn.get(), st);
    }
  }
  span->SetAttribute("template_id", req.template_id);

  JobDefinition def;
  {
    obs::Span parse_span = span->StartChild("parse");
    StorageManager* storage = cv_->storage();
    ScopeScriptParser parser;
    auto plan =
        parser.Parse(req.script, params, [storage](const std::string& name) {
          auto handle = storage->OpenStream(name);
          return handle.ok() ? (*handle)->guid : std::string();
        });
    if (!plan.ok()) {
      parse_span.SetAttribute("error", plan.status().ToString());
      return SendError(conn.get(), plan.status());
    }
    def.logical_plan = std::move(*plan);
  }
  def.template_id = req.template_id;
  def.cluster = req.cluster;
  def.business_unit = req.business_unit;
  def.vc = req.vc;
  def.user = req.user;
  def.recurring_instance = static_cast<int>(req.recurring_instance);
  def.recurrence_period =
      static_cast<LogicalTime>(req.recurrence_period_seconds);
  def.tags = req.tags;

  auto def_ptr = std::make_shared<JobDefinition>(std::move(def));
  const bool enable_cloudviews = req.enable_cloudviews;
  const bool wait = req.wait;
  uint64_t ticket = 0;
  // Runs inside admission's critical section: the ticket, its record and
  // the span attribute exist before a worker can pick the job up.
  std::optional<ShedReason> shed =
      admission_.Admit(conn->id, [&](AdmissionToken admitted) {
        ticket = NewTicket();
        RecordQueued(ticket);
        span->SetAttribute("ticket", ticket);
        const double admit_seconds = cv_->config().wall_clock->NowSeconds();
        auto token = std::make_shared<AdmissionToken>(std::move(admitted));
        pool_->Enqueue([this, conn, ticket, def_ptr, enable_cloudviews, wait,
                        admit_seconds, span, token] {
          RunSubmission(conn, ticket, *def_ptr, enable_cloudviews, wait,
                        admit_seconds, span, token.get());
        });
      });
  if (shed.has_value()) return SendRetryAfter(conn.get(), *shed);
  return wait || Send(conn.get(), AcceptedResponse{ticket});
}

void JobServiceServer::RunSubmission(const std::shared_ptr<Connection>& conn,
                                     uint64_t ticket, const JobDefinition& def,
                                     bool enable_cloudviews, bool wait,
                                     double admit_seconds,
                                     const std::shared_ptr<obs::Span>& span,
                                     AdmissionToken* token) {
  token->Start();
  RecordRunning(ticket);
  MonotonicClock* wall_clock = cv_->config().wall_clock;
  double queue_seconds = wall_clock->NowSeconds() - admit_seconds;

  JobServiceOptions options;
  options.enable_cloudviews = enable_cloudviews;
  options.parent_span = span.get();
  auto result = cv_->Submit(def, options);

  // Finish the net.request root (this request's span tree, with the job
  // nested inside) before the outcome is recorded or the reply goes out,
  // so a client that fetches the profile after its reply finds the trace.
  // The ticket keeps a weak reference: the tracer's copy is the only one.
  std::weak_ptr<const obs::SpanRecord> trace = span->Finish();

  if (result.ok()) {
    JobOutcome outcome = OutcomeFromJobResult(*result, cv_->storage());
    WireTimings timings = TimingsFromJobResult(*result);
    timings.queue_seconds = queue_seconds;
    RecordDone(ticket, outcome, timings, std::move(trace));
    request_seconds_->Observe(wall_clock->NowSeconds() - admit_seconds);
    // Release before the job counts as completed and before the response
    // goes out: once a client holds a reply, or Stats() shows the job
    // completed, its in-flight slot is observably free (tests and retry
    // loops rely on that ordering).
    token->Release();
    completed_total_->Increment();
    if (wait) {
      (void)Send(conn.get(), SubmitResultResponse{ticket, outcome, timings});
    }
  } else {
    RecordFailed(ticket, result.status(), std::move(trace));
    request_seconds_->Observe(wall_clock->NowSeconds() - admit_seconds);
    token->Release();
    failed_total_->Increment();
    if (wait) {
      (void)SendError(conn.get(), result.status());
    }
  }
}

bool JobServiceServer::SendRetryAfter(Connection* conn, ShedReason reason) {
  return Send(conn, RetryAfterResponse{reason, admission_.retry_after_ms()});
}

void JobServiceServer::RecordQueued(uint64_t ticket) {
  MutexLock lock(job_mu_);
  StatusResultResponse& status = jobs_[ticket].status;
  status.ticket = ticket;
  status.state = WireJobState::kQueued;
}

void JobServiceServer::RecordRunning(uint64_t ticket) {
  MutexLock lock(job_mu_);
  jobs_[ticket].status.state = WireJobState::kRunning;
}

void JobServiceServer::RecordDone(uint64_t ticket, const JobOutcome& outcome,
                                  const WireTimings& timings,
                                  std::weak_ptr<const obs::SpanRecord> trace) {
  MutexLock lock(job_mu_);
  JobRecord& rec = jobs_[ticket];
  rec.status.state = WireJobState::kDone;
  rec.status.outcome = outcome;
  rec.status.timings = timings;
  rec.trace = std::move(trace);
  finished_order_.push_back(ticket);
  EvictFinishedLocked();
}

void JobServiceServer::RecordFailed(
    uint64_t ticket, const Status& status,
    std::weak_ptr<const obs::SpanRecord> trace) {
  MutexLock lock(job_mu_);
  JobRecord& rec = jobs_[ticket];
  rec.status.state = WireJobState::kFailed;
  rec.status.error_code = static_cast<uint8_t>(status.code());
  rec.status.error_message = status.message();
  rec.trace = std::move(trace);
  finished_order_.push_back(ticket);
  EvictFinishedLocked();
}

void JobServiceServer::EvictFinishedLocked() {
  while (jobs_.size() > config_.job_table_capacity &&
         !finished_order_.empty()) {
    uint64_t oldest = finished_order_.front();
    finished_order_.pop_front();
    jobs_.erase(oldest);
  }
}

}  // namespace net
}  // namespace cloudviews
