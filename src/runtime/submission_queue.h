#ifndef CLOUDVIEWS_RUNTIME_SUBMISSION_QUEUE_H_
#define CLOUDVIEWS_RUNTIME_SUBMISSION_QUEUE_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace cloudviews {

/// \brief Bounded work queue between the network front door and
/// JobService::SubmitJob.
///
/// This is the admission-control seam: TryEnqueue never blocks and never
/// grows past `capacity` — a full queue is reported to the caller, which
/// sheds the request with RETRY_AFTER instead of queuing unboundedly.
/// Tasks are arbitrary closures so the server can bundle "run the job,
/// send the response, release the admission token" into one unit whose
/// completion the queue can drain on shutdown.
///
/// Thread-safe. Workers are dedicated threads (not the shared ThreadPool):
/// job execution already fans out onto the pool internally, and a pool
/// task blocking on another pool task would deadlock a 1-core host.
class SubmissionQueue {
 public:
  struct Options {
    size_t capacity = 256;
    int workers = 4;
    /// Metric label; families are cv_submission_queue_*{queue=<name>}.
    std::string name = "default";
  };

  /// `metrics` is required (the queue's counters, gauges and wait
  /// histogram live there); `clock` times the wait histogram. Workers
  /// start immediately.
  SubmissionQueue(const Options& options, obs::MetricsRegistry* metrics,
                  MonotonicClock* clock = MonotonicClock::Real());
  /// Shuts down (drains queued tasks first).
  ~SubmissionQueue();

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  enum class Admit {
    kAdmitted = 0,
    /// Queue at capacity; the caller should shed with retry-after.
    kQueueFull = 1,
    /// Shutdown has begun; new work is refused.
    kShuttingDown = 2,
  };

  /// Enqueues without blocking; on kAdmitted the task will run exactly
  /// once on a worker thread (even if Shutdown starts first — shutdown
  /// drains, it does not drop).
  Admit TryEnqueue(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every task admitted so far has finished running. New
  /// tasks may still be admitted while draining; they are included.
  void Drain() EXCLUDES(mu_);

  /// Refuses new work, drains everything already admitted, joins workers.
  /// Idempotent.
  void Shutdown() EXCLUDES(mu_);

  size_t depth() const EXCLUDES(mu_);
  /// Tasks admitted over the queue's lifetime.
  uint64_t admitted() const;
  /// Tasks currently executing on a worker thread. depth() + running() is
  /// the admitted-but-unfinished backlog (during a drain the queue may be
  /// empty with work still in flight).
  size_t running() const EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  const size_t capacity_;
  MonotonicClock* const clock_;

  mutable Mutex mu_;
  CondVar work_cv_;   // signals workers: task available or shutdown
  CondVar drain_cv_;  // signals Drain/Shutdown: queue empty + idle workers
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t running_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;

  obs::Gauge* depth_gauge_ = nullptr;
  obs::Gauge* running_gauge_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Histogram* queue_wait_ = nullptr;
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_RUNTIME_SUBMISSION_QUEUE_H_
