#include "net/admission.h"

#include <string>

namespace cloudviews {
namespace net {

AdmissionToken& AdmissionToken::operator=(AdmissionToken&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = other.controller_;
    conn_id_ = other.conn_id_;
    other.controller_ = nullptr;
  }
  return *this;
}

void AdmissionToken::Release() {
  if (controller_ != nullptr) {
    controller_->Release(conn_id_);
    controller_ = nullptr;
  }
}

AdmissionController::AdmissionController(const Options& options,
                                         fault::FaultInjector* fault,
                                         obs::MetricsRegistry* metrics)
    : options_(options), fault_(fault) {
  // In ShedReason order.
  const char* reasons[] = {"queue_full", "conn_cap", "draining", "injected"};
  for (size_t i = 0; i < shed_.size(); ++i) {
    shed_[i] = metrics->GetCounter("cv_net_shed_total",
                                   {{"reason", reasons[i]}},
                                   "Submissions shed with RETRY_AFTER");
  }
  inflight_gauge_ = metrics->GetGauge(
      "cv_net_inflight", {}, "Admitted submissions awaiting a response");
}

AdmissionController::AcquireResult AdmissionController::Acquire(
    uint64_t conn_id) {
  AcquireResult result;
  if (draining()) {
    result.reason = ShedReason::kDraining;
    RecordShed(result.reason);
    return result;
  }
  if (fault_ != nullptr) {
    Status injected = fault_->MaybeInject(fault::points::kNetQueueAdmit,
                                          std::to_string(conn_id));
    if (!injected.ok()) {
      result.reason = ShedReason::kInjected;
      RecordShed(result.reason);
      return result;
    }
  }
  {
    MutexLock lock(mu_);
    int& count = inflight_[conn_id];
    if (count >= options_.per_connection_inflight_cap) {
      if (count == 0) inflight_.erase(conn_id);
      result.reason = ShedReason::kConnCap;
    } else {
      ++count;
      ++total_inflight_;
      result.admitted = true;
      result.token = AdmissionToken(this, conn_id);
      inflight_gauge_->Set(static_cast<double>(total_inflight_));
    }
  }
  if (!result.admitted) RecordShed(result.reason);
  return result;
}

void AdmissionController::RecordShed(ShedReason reason) {
  shed_[static_cast<size_t>(reason)]->Increment();
}

uint64_t AdmissionController::shed_count(ShedReason reason) const {
  return shed_[static_cast<size_t>(reason)]->value();
}

uint64_t AdmissionController::inflight() const {
  MutexLock lock(mu_);
  return total_inflight_;
}

void AdmissionController::Release(uint64_t conn_id) {
  MutexLock lock(mu_);
  auto it = inflight_.find(conn_id);
  if (it == inflight_.end()) return;
  if (--it->second <= 0) inflight_.erase(it);
  --total_inflight_;
  inflight_gauge_->Set(static_cast<double>(total_inflight_));
}

}  // namespace net
}  // namespace cloudviews
