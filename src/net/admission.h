#ifndef CLOUDVIEWS_NET_ADMISSION_H_
#define CLOUDVIEWS_NET_ADMISSION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/mutex.h"
#include "fault/fault_injector.h"
#include "net/net_config.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace net {

class AdmissionController;

/// \brief An admitted submission's two slots: one of its connection's
/// in-flight slots, held until Release, and one global queue slot, held
/// until Start. The destructor releases both on every path — response
/// sent, connection dropped mid-request, task never run — so neither can
/// leak.
class AdmissionToken {
 public:
  AdmissionToken(AdmissionToken&& other) noexcept
      : controller_(other.controller_),
        conn_id_(other.conn_id_),
        started_(other.started_) {
    other.controller_ = nullptr;
  }
  AdmissionToken(const AdmissionToken&) = delete;
  AdmissionToken& operator=(const AdmissionToken&) = delete;
  ~AdmissionToken() { Release(); }

  /// A worker picked the submission up: frees its queue slot.
  void Start();
  /// The submission is answered: frees its in-flight slot, and its queue
  /// slot if it never started. Idempotent.
  void Release();

 private:
  friend class AdmissionController;
  AdmissionToken(AdmissionController* controller, uint64_t conn_id)
      : controller_(controller), conn_id_(conn_id) {}

  AdmissionController* controller_ = nullptr;
  uint64_t conn_id_ = 0;
  bool started_ = false;
};

/// \brief The one place a wire submit is admitted or shed.
///
/// Admit checks, in order: the drain gate (kDraining), the injected fault
/// points::kNetQueueAdmit keyed by the connection id (kInjected), the
/// connection's in-flight cap (kConnCap), and the global bound on
/// submissions admitted but not yet started (kQueueFull). Every refusal is
/// counted in cv_net_shed_total{reason} and every admission in
/// cv_net_accepted_total, so RETRY_AFTER replies, the metrics and
/// SERVER_STATS agree.
class AdmissionController {
 public:
  /// Reads the in-flight cap, the queue bound (at least 1) and the
  /// RETRY_AFTER hint from `config`. `fault` may be null.
  AdmissionController(const NetServerConfig& config,
                      fault::FaultInjector* fault,
                      obs::MetricsRegistry* metrics);

  /// Admits a submit from `conn_id`, or returns the reason it is shed. An
  /// admitted submit's `start(token)` runs inside the controller's critical
  /// section, so once Drain() returns `start` has run for every admitted
  /// submit. `start` must keep the token past its return and must not call
  /// the controller.
  std::optional<ShedReason> Admit(
      uint64_t conn_id, const std::function<void(AdmissionToken)>& start)
      EXCLUDES(mu_);

  /// Flips the drain gate: every later Admit sheds with kDraining. False if
  /// the gate was already flipped.
  bool Drain() EXCLUDES(mu_);

  uint32_t retry_after_ms() const { return retry_after_ms_; }

  uint64_t shed_count(ShedReason reason) const;
  /// Submissions admitted over the controller's lifetime.
  uint64_t accepted() const { return accepted_->value(); }
  /// Submissions admitted and not yet released, across connections.
  uint64_t inflight() const EXCLUDES(mu_);
  /// Submissions admitted and not yet started.
  uint64_t queued() const EXCLUDES(mu_);

 private:
  friend class AdmissionToken;
  void Start() EXCLUDES(mu_);
  void Release(uint64_t conn_id, bool started) EXCLUDES(mu_);

  const int per_connection_cap_;
  const size_t queue_capacity_;
  const uint32_t retry_after_ms_;
  fault::FaultInjector* const fault_;

  mutable Mutex mu_;
  bool draining_ GUARDED_BY(mu_) = false;
  /// conn id -> submissions admitted but not yet released. Entries are
  /// erased at zero so a long-lived server does not accumulate dead ids.
  std::unordered_map<uint64_t, int> inflight_ GUARDED_BY(mu_);
  uint64_t total_inflight_ GUARDED_BY(mu_) = 0;
  uint64_t queued_ GUARDED_BY(mu_) = 0;

  /// cv_net_shed_total{reason}, indexed by ShedReason.
  std::array<obs::Counter*, 4> shed_{};
  obs::Counter* accepted_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
};

}  // namespace net
}  // namespace cloudviews

#endif  // CLOUDVIEWS_NET_ADMISSION_H_
