#ifndef CLOUDVIEWS_NET_SERVER_H_
#define CLOUDVIEWS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/cloudviews.h"
#include "net/admission.h"
#include "net/net_config.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/trace.h"

namespace cloudviews {
namespace net {

/// \brief The job-service network front door: a thread-per-connection TCP
/// server speaking the versioned frame protocol of wire.h.
///
/// Request flow for a submit:
///   read frame -> decode -> parse script against the server's catalog ->
///   AdmissionController::Admit (drain gate, injected faults, per-conn
///   cap, global bound; an admitted submit gets its ticket and is enqueued
///   on the "net" ThreadPool) -> a pool worker runs CloudViews::Submit with
///   the request's "net.request" span as parent -> outcome recorded in the
///   ticket table -> response framed back.
/// A shed returns a typed kRetryAfter instead of queuing unboundedly; any
/// protocol failure returns kError or closes, never crashes.
///
/// Stop() is a drain: the admission gate flips first (new submits shed
/// with kDraining), the pool runs every admitted job and joins, then
/// sockets shut down and threads join. Admitted work is never dropped.
class JobServiceServer {
 public:
  /// `cv` must outlive the server. The server shares the instance's
  /// metrics registry, tracer, and fault injector.
  JobServiceServer(CloudViews* cv, NetServerConfig config);
  ~JobServiceServer();

  JobServiceServer(const JobServiceServer&) = delete;
  JobServiceServer& operator=(const JobServiceServer&) = delete;

  /// Binds + listens + starts the accept loop; returns the bound port
  /// (useful with config.port == 0).
  Result<uint16_t> Start();

  /// Drain shutdown (see class comment). Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  /// Point-in-time stats, same values the kServerStats request returns.
  ServerStatsResponse Stats() const;

 private:
  struct Connection {
    uint64_t id = 0;
    Socket sock;
    /// Serializes response frames: the connection thread (errors, polls)
    /// and pool workers (submit results) both write.
    Mutex write_mu;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Ticket-table entry; tickets are server-assigned and survive the
  /// submitting connection, so a client may poll from a new connection.
  struct JobRecord {
    /// The STATUS_RESULT a status query answers with.
    StatusResultResponse status;
    /// The job's finished net.request trace, while the tracer retains it:
    /// the tracer's copy is the only one, rendered when PROFILE_FETCH asks.
    /// Empty on an instance that does not trace.
    std::weak_ptr<const obs::SpanRecord> trace;
  };

  void AcceptLoop();
  void ConnectionLoop(const std::shared_ptr<Connection>& conn);
  /// Handles one decoded frame; returns false when the connection must
  /// close (protocol violation or write failure).
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   const FrameHeader& header, const std::string& payload);
  bool HandleSubmit(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  /// Runs on a pool worker: executes the job, records the outcome, sends
  /// the kSubmitResult when the client is waiting. Shared-ptr captures keep
  /// the connection, span, and admission token alive inside the copyable
  /// pool task; the token releases before the reply is written.
  void RunSubmission(const std::shared_ptr<Connection>& conn, uint64_t ticket,
                     const JobDefinition& def, bool enable_cloudviews,
                     bool wait, double admit_seconds,
                     const std::shared_ptr<obs::Span>& span,
                     AdmissionToken* token);

  /// Encodes `reply` and sends it under its own tag; false when the
  /// connection must close (write failure, injected or real).
  template <typename Reply>
  bool Send(Connection* conn, const Reply& reply);
  bool SendError(Connection* conn, const Status& status);
  bool SendRetryAfter(Connection* conn, ShedReason reason);
  /// Decodes a `Request` and sends `answer(request)`'s reply; a payload
  /// that does not decode, or an error answer, gets kError instead.
  template <typename Request, typename Answer>
  bool Serve(Connection* conn, const std::string& payload, Answer&& answer);
  Result<StatusResultResponse> JobStatus(uint64_t ticket) const
      EXCLUDES(job_mu_);
  Result<ProfileResultResponse> JobProfile(uint64_t ticket) const
      EXCLUDES(job_mu_);

  uint64_t NewTicket() { return next_ticket_.fetch_add(1); }
  void RecordQueued(uint64_t ticket);
  void RecordRunning(uint64_t ticket);
  void RecordDone(uint64_t ticket, const JobOutcome& outcome,
                  const WireTimings& timings,
                  std::weak_ptr<const obs::SpanRecord> trace);
  void RecordFailed(uint64_t ticket, const Status& status,
                    std::weak_ptr<const obs::SpanRecord> trace);
  /// Holds job_mu_; evicts oldest finished records past the table bound.
  void EvictFinishedLocked() REQUIRES(job_mu_);

  void ReapFinishedConnections() EXCLUDES(conns_mu_);

  CloudViews* const cv_;
  const NetServerConfig config_;
  AdmissionController admission_;
  /// Runs admitted submissions; Stop() destroys it, which runs every
  /// queued one. Declared after admission_, which its tasks use.
  std::unique_ptr<ThreadPool> pool_;

  Socket listener_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  uint16_t port_ = 0;

  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> next_ticket_{1};

  mutable Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ GUARDED_BY(conns_mu_);

  mutable Mutex job_mu_;
  std::unordered_map<uint64_t, JobRecord> jobs_ GUARDED_BY(job_mu_);
  /// Finished tickets in completion order, for bounded-memory eviction.
  std::deque<uint64_t> finished_order_ GUARDED_BY(job_mu_);

  // Observability (never null; CloudViews always owns a registry).
  obs::Counter* completed_total_ = nullptr;
  obs::Counter* failed_total_ = nullptr;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* conns_total_ = nullptr;
  obs::Counter* conns_rejected_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Gauge* conns_gauge_ = nullptr;
  obs::Histogram* request_seconds_ = nullptr;
  obs::Histogram* reply_seconds_ = nullptr;
};

}  // namespace net
}  // namespace cloudviews

#endif  // CLOUDVIEWS_NET_SERVER_H_
