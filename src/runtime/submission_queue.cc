#include "runtime/submission_queue.h"

#include <utility>

namespace cloudviews {

SubmissionQueue::SubmissionQueue(const Options& options,
                                 obs::MetricsRegistry* metrics,
                                 MonotonicClock* clock)
    : capacity_(options.capacity > 0 ? options.capacity : 1), clock_(clock) {
  obs::Labels labels{{"queue", options.name}};
  depth_gauge_ = metrics->GetGauge(
      "cv_submission_queue_depth", labels,
      "Tasks queued, not yet picked up by a worker (excludes running "
      "tasks — see cv_submission_queue_running for work in flight)");
  running_gauge_ = metrics->GetGauge(
      "cv_submission_queue_running", labels,
      "Tasks currently executing on a worker thread; depth + running is "
      "the total admitted-but-unfinished work");
  admitted_counter_ =
      metrics->GetCounter("cv_submission_queue_admitted_total", labels,
                          "Tasks admitted into the bounded queue");
  rejected_counter_ =
      metrics->GetCounter("cv_submission_queue_rejected_total", labels,
                          "Enqueue attempts refused (full or shutdown)");
  queue_wait_ =
      metrics->GetHistogram("cv_submission_queue_wait_seconds", labels, {},
                            "Enqueue-to-dequeue wait");
  int workers = options.workers > 0 ? options.workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SubmissionQueue::~SubmissionQueue() { Shutdown(); }

SubmissionQueue::Admit SubmissionQueue::TryEnqueue(
    std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      rejected_counter_->Increment();
      return Admit::kShuttingDown;
    }
    if (queue_.size() >= capacity_) {
      rejected_counter_->Increment();
      return Admit::kQueueFull;
    }
    double now = clock_->NowSeconds();
    queue_.push_back([this, now, task = std::move(task)] {
      queue_wait_->Observe(clock_->NowSeconds() - now);
      task();
    });
    // The admitted counter moves inside the same critical section as the
    // queue push: a metrics scrape racing an admit must never observe
    // admitted/rejected totals inconsistent with the depth gauge.
    admitted_counter_->Increment();
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  work_cv_.NotifyOne();
  return Admit::kAdmitted;
}

void SubmissionQueue::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !shutdown_) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
      depth_gauge_->Set(static_cast<double>(queue_.size()));
      running_gauge_->Set(static_cast<double>(running_));
    }
    task();
    {
      MutexLock lock(mu_);
      --running_;
      running_gauge_->Set(static_cast<double>(running_));
    }
    drain_cv_.NotifyAll();
  }
}

void SubmissionQueue::Drain() {
  MutexLock lock(mu_);
  while (!queue_.empty() || running_ > 0) drain_cv_.Wait(mu_);
}

void SubmissionQueue::Shutdown() {
  {
    MutexLock lock(mu_);
    if (!shutdown_) shutdown_ = true;
    // Workers exit once the queue is empty; everything already admitted
    // still runs (shutdown drains, it does not drop).
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

size_t SubmissionQueue::depth() const {
  MutexLock lock(mu_);
  return queue_.size();
}

uint64_t SubmissionQueue::admitted() const {
  return admitted_counter_->value();
}

size_t SubmissionQueue::running() const {
  MutexLock lock(mu_);
  return running_;
}

}  // namespace cloudviews
