#include "net/admission.h"

#include <algorithm>
#include <string>
#include <utility>

namespace cloudviews {
namespace net {

void AdmissionToken::Start() {
  if (controller_ != nullptr && !started_) {
    controller_->Start();
    started_ = true;
  }
}

void AdmissionToken::Release() {
  if (controller_ != nullptr) {
    controller_->Release(conn_id_, started_);
    controller_ = nullptr;
  }
}

AdmissionController::AdmissionController(const NetServerConfig& config,
                                         fault::FaultInjector* fault,
                                         obs::MetricsRegistry* metrics)
    : per_connection_cap_(config.per_connection_inflight_cap),
      queue_capacity_(std::max<size_t>(config.submission_queue_capacity, 1)),
      retry_after_ms_(config.retry_after_ms),
      fault_(fault) {
  // In ShedReason order.
  const char* reasons[] = {"queue_full", "conn_cap", "draining", "injected"};
  for (size_t i = 0; i < shed_.size(); ++i) {
    shed_[i] = metrics->GetCounter("cv_net_shed_total",
                                   {{"reason", reasons[i]}},
                                   "Submissions shed with RETRY_AFTER");
  }
  accepted_ = metrics->GetCounter("cv_net_accepted_total", {},
                                  "Submissions admitted and given a ticket");
  inflight_gauge_ = metrics->GetGauge(
      "cv_net_inflight", {}, "Admitted submissions awaiting a response");
}

std::optional<ShedReason> AdmissionController::Admit(
    uint64_t conn_id, const std::function<void(AdmissionToken)>& start) {
  MutexLock lock(mu_);
  std::optional<ShedReason> shed;
  auto held = inflight_.find(conn_id);
  if (draining_) {
    shed = ShedReason::kDraining;
  } else if (fault_ != nullptr &&
             !fault_->MaybeInject(fault::points::kNetQueueAdmit,
                                  std::to_string(conn_id))
                  .ok()) {
    shed = ShedReason::kInjected;
  } else if ((held == inflight_.end() ? 0 : held->second) >=
             per_connection_cap_) {
    shed = ShedReason::kConnCap;
  } else if (queued_ >= queue_capacity_) {
    shed = ShedReason::kQueueFull;
  }
  if (shed.has_value()) {
    shed_[static_cast<size_t>(*shed)]->Increment();
    return shed;
  }
  ++inflight_[conn_id];
  ++total_inflight_;
  ++queued_;
  // Counted inside the critical section: a scrape never sees more work
  // queued or in flight than admissions that explain it.
  accepted_->Increment();
  inflight_gauge_->Set(static_cast<double>(total_inflight_));
  start(AdmissionToken(this, conn_id));
  return std::nullopt;
}

bool AdmissionController::Drain() {
  MutexLock lock(mu_);
  return !std::exchange(draining_, true);
}

uint64_t AdmissionController::shed_count(ShedReason reason) const {
  return shed_[static_cast<size_t>(reason)]->value();
}

uint64_t AdmissionController::inflight() const {
  MutexLock lock(mu_);
  return total_inflight_;
}

uint64_t AdmissionController::queued() const {
  MutexLock lock(mu_);
  return queued_;
}

void AdmissionController::Start() {
  MutexLock lock(mu_);
  --queued_;
}

void AdmissionController::Release(uint64_t conn_id, bool started) {
  MutexLock lock(mu_);
  if (!started) --queued_;
  auto it = inflight_.find(conn_id);
  if (it == inflight_.end()) return;
  if (--it->second <= 0) inflight_.erase(it);
  --total_inflight_;
  inflight_gauge_->Set(static_cast<double>(total_inflight_));
}

}  // namespace net
}  // namespace cloudviews
