#ifndef CLOUDVIEWS_NET_ADMISSION_H_
#define CLOUDVIEWS_NET_ADMISSION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "common/mutex.h"
#include "fault/fault_injector.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace cloudviews {
namespace net {

class AdmissionController;

/// \brief RAII in-flight-cap token. Holding one means the owning
/// connection has a submission admitted but not yet responded to; the
/// destructor releases the slot on every path — response sent, connection
/// dropped mid-request, or queue rejection — so caps can never leak.
class AdmissionToken {
 public:
  AdmissionToken() = default;
  AdmissionToken(AdmissionToken&& other) noexcept
      : controller_(other.controller_), conn_id_(other.conn_id_) {
    other.controller_ = nullptr;
  }
  AdmissionToken& operator=(AdmissionToken&& other) noexcept;
  AdmissionToken(const AdmissionToken&) = delete;
  AdmissionToken& operator=(const AdmissionToken&) = delete;
  ~AdmissionToken() { Release(); }

  void Release();
  bool held() const { return controller_ != nullptr; }

 private:
  friend class AdmissionController;
  AdmissionToken(AdmissionController* controller, uint64_t conn_id)
      : controller_(controller), conn_id_(conn_id) {}

  AdmissionController* controller_ = nullptr;
  uint64_t conn_id_ = 0;
};

/// \brief Per-connection in-flight caps + drain gate + shed accounting.
///
/// Sits in front of the SubmissionQueue: Acquire enforces everything the
/// queue cannot see (which connection is asking, whether the server is
/// draining, injected front-door faults); the queue itself enforces the
/// global bound. Every shed path is a typed reason so the RETRY_AFTER
/// response and the metrics agree.
class AdmissionController {
 public:
  struct Options {
    int per_connection_inflight_cap = 8;
    uint32_t retry_after_ms = 25;
  };

  /// `fault` may be null; `metrics` is required (the shed counters and the
  /// in-flight gauge live there).
  AdmissionController(const Options& options, fault::FaultInjector* fault,
                      obs::MetricsRegistry* metrics);

  struct AcquireResult {
    bool admitted = false;
    /// Valid when !admitted.
    ShedReason reason = ShedReason::kQueueFull;
    /// Valid when admitted; release happens via RAII.
    AdmissionToken token;
  };

  /// Tries to take an in-flight slot for `conn_id`. Checked in order:
  /// draining gate, injected fault (points::kNetQueueAdmit, keyed by the
  /// connection id), per-connection cap.
  AcquireResult Acquire(uint64_t conn_id) EXCLUDES(mu_);

  /// Counts a shed that happened past Acquire (queue full / draining race)
  /// so stats cover every RETRY_AFTER actually sent.
  void RecordShed(ShedReason reason);

  /// Flips the drain gate: every later Acquire sheds with kDraining.
  void SetDraining() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  uint32_t retry_after_ms() const { return options_.retry_after_ms; }

  uint64_t shed_count(ShedReason reason) const;
  /// Admissions currently in flight (tokens held) across all connections.
  uint64_t inflight() const EXCLUDES(mu_);

 private:
  friend class AdmissionToken;
  void Release(uint64_t conn_id) EXCLUDES(mu_);

  const Options options_;
  fault::FaultInjector* const fault_;
  std::atomic<bool> draining_{false};

  mutable Mutex mu_;
  /// conn id -> submissions admitted but not yet released. Entries are
  /// erased at zero so a long-lived server does not accumulate dead ids.
  std::unordered_map<uint64_t, int> inflight_ GUARDED_BY(mu_);
  uint64_t total_inflight_ GUARDED_BY(mu_) = 0;

  /// cv_net_shed_total{reason}, indexed by ShedReason.
  std::array<obs::Counter*, 4> shed_{};
  obs::Gauge* inflight_gauge_ = nullptr;
};

}  // namespace net
}  // namespace cloudviews

#endif  // CLOUDVIEWS_NET_ADMISSION_H_
