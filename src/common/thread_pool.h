#ifndef CLOUDVIEWS_COMMON_THREAD_POOL_H_
#define CLOUDVIEWS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace cloudviews {

/// CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID);
/// the honest basis for the paper's "CPU hours" resource accounting (wall
/// time inflates under thread oversubscription).
double ThreadCpuSeconds();

/// \brief Thread-safe accumulator of CPU time contributed by many threads.
///
/// Each worker measures its own thread-CPU-clock delta and adds it here, so
/// an operator's cpu_seconds is the sum over every thread that touched it —
/// the attribution invariant the CloudViews feedback loop depends on.
class CpuAccumulator {
 public:
  void AddSeconds(double seconds) {
    nanos_.fetch_add(static_cast<int64_t>(seconds * 1e9),
                     std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  std::atomic<int64_t> nanos_{0};
};

/// RAII helper: credits the enclosing scope's thread-CPU delta to an
/// accumulator (no-op when the accumulator is null).
class ScopedThreadCpuTimer {
 public:
  explicit ScopedThreadCpuTimer(CpuAccumulator* acc)
      : acc_(acc), start_(acc ? ThreadCpuSeconds() : 0) {}
  ~ScopedThreadCpuTimer() {
    if (acc_ != nullptr) acc_->AddSeconds(ThreadCpuSeconds() - start_);
  }
  ScopedThreadCpuTimer(const ScopedThreadCpuTimer&) = delete;
  ScopedThreadCpuTimer& operator=(const ScopedThreadCpuTimer&) = delete;

 private:
  CpuAccumulator* acc_;
  double start_;
};

/// \brief A fixed-size worker pool.
///
/// The job service owns one (`exec`) shared by every concurrently running
/// job: both independent plan subtrees and intra-operator morsel work are
/// scheduled there. The network front door owns another (`net`) that runs
/// admitted submissions. A task may block on anything except a task of the
/// same pool; it waits for those only through TaskGroup::Wait, which lends
/// the waiting thread to the pool (so nested fork/join parallelism cannot
/// deadlock on a bounded pool). A front-door task blocks on its socket and
/// on shared executions, and fans its job out onto the `exec` pool.
class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least 1). The pool publishes
  /// task throughput, queue depth, saturation (busy workers), and task
  /// wait/run histograms timed on `clock` under
  /// `cv_threadpool_*{pool=<name>}`, into `metrics` or, when it is null,
  /// into a registry the pool owns.
  explicit ThreadPool(int threads,
                      obs::MetricsRegistry* metrics = nullptr,
                      const std::string& name = "exec",
                      MonotonicClock* clock = MonotonicClock::Real());
  /// Runs every task enqueued before it, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs `task` once on a worker; fire-and-forget.
  void Enqueue(std::function<void()> task) EXCLUDES(mu_);

 private:
  friend class TaskGroup;

  struct QueuedTask {
    std::function<void()> fn;
    double enqueued_at = 0;
  };
  struct Instruments {
    obs::Gauge* threads = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* busy_workers = nullptr;
    obs::Counter* tasks = nullptr;
    obs::Histogram* task_wait = nullptr;
    obs::Histogram* task_run = nullptr;
  };

  /// Runs one queued task on the calling thread; false if the queue was
  /// empty. Used by waiters to help instead of blocking.
  bool RunOne() EXCLUDES(mu_);
  void WorkerLoop() EXCLUDES(mu_);
  /// Timing + saturation accounting around one dequeued task.
  void RunTask(QueuedTask task);

  MonotonicClock* clock_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  Instruments obs_;
  Mutex mu_;
  CondVar cv_;
  std::deque<QueuedTask> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

/// \brief A fork/join scope over pool tasks.
///
/// With a null pool every Spawn runs inline on the calling thread, giving
/// the deterministic single-threaded schedule (`worker_threads = 1`).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Spawn(std::function<void()> fn) EXCLUDES(mu_);

  /// Blocks until every spawned task finished; the calling thread executes
  /// queued pool tasks while it waits.
  void Wait() EXCLUDES(mu_);

 private:
  ThreadPool* pool_;
  Mutex mu_;
  CondVar done_cv_;
  size_t pending_ GUARDED_BY(mu_) = 0;
};

/// Runs fn(0..n-1); morsel indices are distributed over the pool (inline
/// when pool is null or n < 2). Blocks until all iterations finished.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace cloudviews

#endif  // CLOUDVIEWS_COMMON_THREAD_POOL_H_
