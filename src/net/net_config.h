#ifndef CLOUDVIEWS_NET_NET_CONFIG_H_
#define CLOUDVIEWS_NET_NET_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cloudviews {
namespace net {

/// \brief Tuning knobs for the job-service network front door.
///
/// Header-only so CloudViewsConfig can embed it without cv_core linking
/// cv_net; the server binary and tests construct a JobServiceServer from
/// `CloudViewsConfig::net` (or a standalone copy).
struct NetServerConfig {
  /// Listen address. The default binds loopback only: the front door is an
  /// intra-host protocol until authentication exists.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (the bound port is
  /// returned by JobServiceServer::Start so tests and benches can connect).
  uint16_t port = 0;
  /// Listen backlog passed to ::listen.
  int listen_backlog = 64;
  /// Maximum concurrently open client connections; accepts beyond the cap
  /// are closed immediately after accept (counted as sheds).
  int max_connections = 64;
  /// Per-connection cap on submissions admitted but not yet responded to.
  /// A connection exceeding it gets RETRY_AFTER(CONN_CAP).
  int per_connection_inflight_cap = 8;
  /// Bound on submissions admitted but not yet started by a worker; past it
  /// a submit sheds with RETRY_AFTER(QUEUE_FULL) instead of queuing
  /// unboundedly.
  size_t submission_queue_capacity = 256;
  /// Threads of the front door's "net" ThreadPool, which runs admitted
  /// submissions through JobService::SubmitJob.
  int submission_workers = 4;
  /// Hint returned in RETRY_AFTER responses; clients should back off at
  /// least this long before resubmitting.
  uint32_t retry_after_ms = 25;
  /// Completed-job records kept for status polling; the oldest finished
  /// records are evicted past this bound so a long-lived server holds
  /// bounded memory. A record holds the job's status and a weak reference
  /// to its trace: how long a profile can be fetched is the tracer's
  /// retention, not this bound.
  size_t job_table_capacity = 1 << 16;
};

}  // namespace net
}  // namespace cloudviews

#endif  // CLOUDVIEWS_NET_NET_CONFIG_H_
