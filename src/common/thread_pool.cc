#include "common/thread_pool.h"

#include <ctime>

namespace cloudviews {

double ThreadCpuSeconds() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

ThreadPool::ThreadPool(int threads, obs::MetricsRegistry* metrics,
                       const std::string& name, MonotonicClock* clock)
    : clock_(clock) {
  if (threads < 1) threads = 1;
  metrics = obs::SharedOrOwned(metrics, &own_metrics_);
  obs::Labels labels = {{"pool", name}};
  obs_.threads = metrics->GetGauge("cv_threadpool_threads", labels,
                                   "Worker threads in the pool");
  obs_.queue_depth = metrics->GetGauge("cv_threadpool_queue_depth", labels,
                                       "Tasks enqueued but not yet started");
  obs_.busy_workers =
      metrics->GetGauge("cv_threadpool_busy_workers", labels,
                        "Threads currently running a task (saturation "
                        "when equal to cv_threadpool_threads)");
  obs_.tasks = metrics->GetCounter("cv_threadpool_tasks_total", labels,
                                   "Tasks executed");
  obs_.task_wait =
      metrics->GetHistogram("cv_threadpool_task_wait_seconds", labels, {},
                            "Delay between task enqueue and start");
  obs_.task_run =
      metrics->GetHistogram("cv_threadpool_task_run_seconds", labels, {},
                            "Task execution wall time");
  obs_.threads->Set(threads);
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  QueuedTask queued;
  queued.fn = std::move(task);
  queued.enqueued_at = clock_->NowSeconds();
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(queued));
  }
  obs_.queue_depth->Add(1);
  cv_.NotifyOne();
}

void ThreadPool::RunTask(QueuedTask task) {
  double start = clock_->NowSeconds();
  obs_.task_wait->Observe(start - task.enqueued_at);
  obs_.busy_workers->Add(1);
  task.fn();
  obs_.busy_workers->Add(-1);
  obs_.task_run->Observe(clock_->NowSeconds() - start);
  obs_.tasks->Increment();
}

bool ThreadPool::RunOne() {
  QueuedTask task;
  {
    MutexLock lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  obs_.queue_depth->Add(-1);
  RunTask(std::move(task));
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    obs_.queue_depth->Add(-1);
    RunTask(std::move(task));
  }
}

void TaskGroup::Spawn(std::function<void()> fn) {
  if (pool_ == nullptr) {
    fn();
    return;
  }
  {
    MutexLock lock(mu_);
    ++pending_;
  }
  pool_->Enqueue([this, fn = std::move(fn)] {
    fn();
    // Decrement and notify under the lock: the waiter may destroy this
    // group the moment it observes pending_ == 0.
    MutexLock lock(mu_);
    if (--pending_ == 0) done_cv_.NotifyAll();
  });
}

void TaskGroup::Wait() {
  if (pool_ == nullptr) return;
  for (;;) {
    {
      MutexLock lock(mu_);
      if (pending_ == 0) return;
    }
    if (!pool_->RunOne()) {
      // Queue momentarily empty: our remaining tasks are running on other
      // threads. The short timeout re-polls the queue in case a nested
      // group enqueued more work we could help with; Wait's caller loop
      // re-checks pending_ after any wakeup.
      MutexLock lock(mu_);
      if (pending_ == 0) return;
      done_cv_.WaitFor(mu_, std::chrono::milliseconds(1));
      if (pending_ == 0) return;
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || n < 2) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(pool);
  for (size_t i = 0; i < n; ++i) {
    group.Spawn([&fn, i] { fn(i); });
  }
  group.Wait();
}

}  // namespace cloudviews
